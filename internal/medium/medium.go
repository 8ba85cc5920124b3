// Package medium models the shared wireless channel between LoRa
// transmitters and gateway radios: who hears what, at which power, and
// whether a locked-on packet survives interference.
//
// The medium implements the physical behaviours the paper's findings rest
// on:
//
//   - Frequency selectivity (§4.2.4): an Rx chain only locks on packets
//     whose spectral overlap with the chain's channel reaches the detect
//     threshold; sub-threshold packets are truncated by the front-end and
//     contribute only (attenuated) interference. This is what Strategy ⑧
//     exploits to isolate coexisting networks.
//   - Capture and SF quasi-orthogonality: same-SF co-channel packets need
//     ≈6 dB of SIR; cross-SF interference is suppressed by the rejection
//     matrix (Figure 8's orthogonal-DR curves).
//   - Partial-overlap interference: a misaligned interferer's power is
//     scaled by overlap² before entering the SINR, reproducing Figure 16's
//     ≈3.5 dB threshold shift at 20% overlap with non-orthogonal DRs.
//
// All receptions are judged at decode completion against every
// transmission that overlapped the packet in time, using deterministic
// link physics from the phy package.
package medium

import (
	"math"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// NodeID identifies a transmitting end device.
type NodeID int32

// NetworkID identifies an operator network (mapped to a sync word for
// on-air filtering; more than two coexisting networks reuse sync words in
// practice, so NetworkID is the ground truth and SyncWord the radio view).
type NetworkID int32

// Transmission is one packet on the air.
type Transmission struct {
	ID      int64
	Node    NodeID
	Network NetworkID
	Sync    lora.SyncWord
	Channel region.Channel
	DR      lora.DR
	// PayloadLen is the PHY payload length in bytes (sets airtime).
	PayloadLen int
	// Raw optionally carries the encoded PHYPayload for end-to-end runs.
	Raw []byte
	// PowerDBm is the transmit power; Pos the transmitter position.
	PowerDBm float64
	Pos      phy.Point

	Start  des.Time
	LockOn des.Time // preamble end: dispatcher entry time
	End    des.Time // payload end: decoder release time

	// posSlot is the interned index of Pos in the medium's position table
	// (1-based; 0 means "not interned yet": rxSNR interns on first use).
	// Transmit assigns it, so every on-air packet hits the dense per-port
	// gain cache.
	posSlot int32
}

// Params returns the LoRa parameter set of the transmission.
func (t *Transmission) Params() lora.Params { return lora.DefaultParams(t.DR) }

// Port is a gateway radio attached to the medium at a position.
type Port struct {
	Radio   *radio.Radio
	Pos     phy.Point
	Antenna phy.Antenna

	// down is set while the gateway reboots; a down port hears nothing.
	down bool
	// downEpisode attributes the current downtime to a fault-injection
	// episode (0 = ordinary reboot downtime). Carried on every
	// DropGatewayDown emitted while the port is down, so traces
	// distinguish injected outages from reconfiguration reboots.
	downEpisode int64
	// id is the port's registration index.
	id  int
	med *Medium

	// gains/gainOK are the dense link-budget cache for interned
	// transmitter positions: gains[slot-1] holds the static dB budget of
	// the (position, this port) link once gainOK[slot-1] is set. Indexed
	// by Transmission.posSlot, so the judgement loops never hash a
	// position key.
	gains  []linkGain
	gainOK []bool
}

// Down reports whether the port is currently offline (gateway rebooting).
func (p *Port) Down() bool { return p.down }

// SetDown marks the port offline or back online. While down, the port
// hears nothing; every transmission is reported as a DropGatewayDown at
// this port (the gateway-reboot loss of Figure 17's downtime term).
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if !down {
		p.downEpisode = 0
	}
	if p.med != nil {
		if down {
			p.med.downPorts++
		} else {
			p.med.downPorts--
		}
	}
}

// SetDownEpisode records which fault episode the port's downtime belongs
// to. Call before SetDown(true); coming back up clears it.
func (p *Port) SetDownEpisode(episode int64) { p.downEpisode = episode }

// Delivery reports a successful own-network packet reception at a port,
// with the metadata a real gateway forwards to the network server.
type Delivery struct {
	Port *Port
	TX   *Transmission
	Meta radio.Meta
}

// Drop reports a packet that a port failed to deliver, with the cause.
type Drop struct {
	Port   *Port
	TX     *Transmission
	Reason radio.DropReason
	// InterNetwork attributes the drop to coexisting-network pressure:
	// for decoder contention, a foreign packet held a decoder at the
	// moment of the drop; for channel contention, the fatal interferer
	// belonged to another network. Drives the intra/inter split of
	// Figure 4.
	InterNetwork bool
	// Episode attributes a DropGatewayDown to the fault-injection episode
	// that took the port offline (0 for ordinary reboot downtime).
	Episode int64
}

// LockOnEvent reports a packet entering a port's reception pipeline at
// preamble end (dispatcher entry). Every locked-on packet later yields
// exactly one Delivery or Drop at that port.
type LockOnEvent struct {
	Port *Port
	TX   *Transmission
	Meta radio.Meta
}

// Medium is the shared wireless channel of one simulation.
type Medium struct {
	sim *des.Sim
	env phy.Environment

	ports  []*Port
	nextID int64

	// bins holds the transmissions that may still interfere with an
	// ongoing reception (pruned as time advances), one start-sorted lane
	// per (200 kHz frequency bin, data rate): a dense table over the bins
	// seen so far, bin b at bins[b-binBase]. See neighbors. byID resolves
	// the same transmissions for result routing.
	bins    []binLanes
	binBase int64
	byID    map[int64]*Transmission

	// portsByBin is the interest index: frequency bin → the ports whose
	// radios monitor a channel near that bin, in port-id order. Transmit
	// fans out only to the ports listed under the packet's bin instead of
	// asking every radio whether it detects the channel; Radio.Detects
	// remains the authority on the candidates, so the index only needs to
	// never miss a detecting port (see rebuildIndex). It is rebuilt
	// lazily whenever a port is attached or reindexed — gateways publish
	// ConfigEvents on every replan, and the gateway layer routes those to
	// ReindexPort.
	portsByBin map[int64][]*Port
	indexDirty bool
	// downPorts counts ports currently offline, so Transmit only walks
	// the port list for reboot drops when a reboot is actually in
	// progress.
	downPorts int

	// collisionIntf remembers, per (transmission, port), whether the
	// interferer that killed a decode belonged to another network; read
	// back when the radio reports the drop.
	collisionIntf map[judgeKey]bool

	// horizon is the longest airtime of any transmission so far: how long
	// after its end a transmission can still be asked for by a verdict
	// (see prune).
	horizon des.Time
	// lastPrune is when the last full prune pass ran (see pruneInterval).
	lastPrune des.Time
	// onWalk, when set (tests and benchmarks only), observes every
	// neighbour walk: what was asked for and how many transmissions the
	// callback was handed.
	onWalk func(ch region.Channel, winStart des.Time, visits int)

	// posSlots interns transmitter positions: every distinct position is
	// assigned a dense 1-based slot carried on *Transmission, indexing
	// the per-port gains slices. Node positions never move during a run,
	// so the table only grows.
	posSlots map[phy.Point]int32

	// taskFree is the freelist of pooled lock-on tasks (see lockOnTask):
	// steady-state Transmit fan-out allocates neither closures nor Meta
	// copies per detecting port.
	taskFree *lockOnTask

	// judgement is the reusable decode judgement (one runs at a time: the
	// DES is single-threaded); it keeps the CIC path's gather buffer.
	judgement Judgement

	// The packet-lifecycle topics. Dispatch is synchronous and in
	// registration order (see internal/events), so any number of
	// consumers — the metrics collector, experiment probes, trace and
	// summary sinks — observe the same events without interfering.
	//
	// TXStarts fires once per transmission the instant it enters the air.
	TXStarts events.Topic[*Transmission]
	// LockOns fires when a packet's preamble completes at a port that
	// detected it (dispatcher entry).
	LockOns events.Topic[LockOnEvent]
	// Deliveries fires for every successfully received own-network packet
	// at every port (a packet heard by three gateways fires three times —
	// LoRaWAN's gateway redundancy; the network server deduplicates).
	Deliveries events.Topic[Delivery]
	// Drops fires for every lost or filtered packet copy at a port.
	Drops events.Topic[Drop]
	// AirDone fires once per transmission when it leaves the air,
	// regardless of reception results. Subscribe before transmitting:
	// the finalize event is only scheduled for transmissions that start
	// while the topic has subscribers.
	AirDone events.Topic[*Transmission]

	// Rule is the collision policy of every gateway on this medium; set
	// its ResolveCollisions and Capture fields before transmitting.
	Rule
}

type judgeKey struct {
	tx   int64
	port int
}

// linkGain is the cached dB budget of a link, split so the receive power
// reconstruction (TXPowerDBm - pl + ant) is bit-for-bit the expression
// phy.Environment.RXPowerDBm evaluates.
type linkGain struct{ pl, ant float64 }

// New creates a medium over an environment.
func New(sim *des.Sim, env phy.Environment) *Medium {
	return &Medium{
		sim: sim, env: env,
		byID:          make(map[int64]*Transmission),
		portsByBin:    make(map[int64][]*Port),
		collisionIntf: make(map[judgeKey]bool),
		posSlots:      make(map[phy.Point]int32),
	}
}

// binWidth buckets transmissions by center frequency; a 125 kHz channel
// can only overlap packets within the adjacent bins.
const binWidth = 200_000

func bin(f region.Hz) int64 { return int64(f) / binWidth }

// lane is the start-sorted history of one (frequency bin, data rate):
// Transmit appends in simulation order, so txs is sorted by Start and by
// ID alike.
type lane struct {
	txs []*Transmission
	// starts[i] is txs[i].Start, kept dense so the walk's binary search
	// stays within one array instead of chasing a pointer per probe.
	starts []des.Time
	// maxAir is the longest airtime ever appended to this lane. A lane
	// holds one data rate, so it is the airtime of that rate's longest
	// frame — tens of milliseconds at DR5 where the medium-wide bound is
	// the seconds of a DR0 frame.
	maxAir des.Time
}

// live returns the lane's suffix that can still be on the air after
// winStart: everything before it started at or before winStart-maxAir and
// so, whatever its length, ended by winStart.
func (l *lane) live(winStart des.Time) []*Transmission {
	cutoff := winStart - l.maxAir
	lo, hi := 0, len(l.starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.starts[mid] <= cutoff {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.txs[lo:]
}

// binLanes is one frequency bin: a lane per data rate and the spectrum
// its transmissions have ever covered, so a walk can pass over an
// adjacent bin none of whose channels reaches the victim's.
type binLanes struct {
	lanes     [lora.NumDRs]lane
	low, high region.Hz
}

// binOf returns frequency bin b, growing the dense table to cover it
// first.
func (m *Medium) binOf(b int64) *binLanes {
	if len(m.bins) == 0 {
		m.binBase = b
	}
	if n := int64(len(m.bins)); b < m.binBase || b >= m.binBase+n {
		lo, hi := min(b, m.binBase), max(b, m.binBase+n-1)
		grown := make([]binLanes, hi-lo+1)
		for i := range grown {
			grown[i].low, grown[i].high = math.MaxInt64, math.MinInt64
		}
		copy(grown[m.binBase-lo:], m.bins)
		m.bins, m.binBase = grown, lo
	}
	return &m.bins[b-m.binBase]
}

// allDRs asks neighbors for every data rate's lane.
const allDRs lora.DR = -1

// neighbors calls fn for the retained transmissions that could overlap a
// packet on ch in spectrum (same or adjacent frequency bin, and a bin that
// has carried a channel reaching ch) and in time (possibly still on the
// air after winStart), until fn returns false. With only == allDRs it
// covers every data rate, otherwise that rate's lanes alone.
//
// The order is (bin, ID): within a bin the lanes are merged by
// transmission ID, and IDs are issued in start order, so the sequence is
// the one a single start-sorted list per bin would give — the Judgement
// folds interferers in this order and blames the first fatal one. Each
// lane is entered at its own live suffix, so a walk passes over the short
// frames that ended long ago without giving up the long ones still on the
// air. Callers still apply their exact time- and spectrum-overlap
// predicates; the walk only leaves out transmissions that provably fail
// them.
func (m *Medium) neighbors(ch region.Channel, only lora.DR, winStart des.Time, fn func(*Transmission) bool) {
	first, last := 0, lora.NumDRs-1
	if only != allDRs {
		first, last = int(only), int(only)
	}
	visits := 0
	b := int(bin(ch.Center) - m.binBase)
walk:
	for bi := max(b-1, 0); bi <= b+1 && bi < len(m.bins); bi++ {
		row := &m.bins[bi]
		if ch.High() <= row.low || ch.Low() >= row.high {
			continue // nothing in this bin ever overlapped ch
		}
		// heads[:n] are the non-empty live suffixes of the bin's lanes.
		var heads [lora.NumDRs][]*Transmission
		n := 0
		for dr := first; dr <= last; dr++ {
			if live := row.lanes[dr].live(winStart); len(live) > 0 {
				heads[n] = live
				n++
			}
		}
		for n > 0 {
			k := 0
			for i := 1; i < n; i++ {
				if heads[i][0].ID < heads[k][0].ID {
					k = i
				}
			}
			u := heads[k][0]
			visits++
			if !fn(u) {
				break walk
			}
			if heads[k] = heads[k][1:]; len(heads[k]) == 0 {
				n--
				heads[k] = heads[n]
			}
		}
	}
	if m.onWalk != nil {
		m.onWalk(ch, winStart, visits)
	}
}

// Sim returns the simulation driving the medium.
func (m *Medium) Sim() *des.Sim { return m.sim }

// Environment returns the propagation environment.
func (m *Medium) Environment() phy.Environment { return m.env }

// Attach registers a gateway radio at a position and returns its port.
func (m *Medium) Attach(r *radio.Radio, pos phy.Point, ant phy.Antenna) *Port {
	p := &Port{Radio: r, Pos: pos, Antenna: ant, id: len(m.ports), med: m}
	m.ports = append(m.ports, p)
	m.indexDirty = true
	return p
}

// Ports returns the registered ports.
func (m *Medium) Ports() []*Port { return m.ports }

// Index returns the port's registration index on its medium — the stable
// identifier lifecycle events carry for "which gateway". For gateways
// composed through the sim package it equals the gateway ID.
func (p *Port) Index() int { return p.id }

// ReindexPort tells the medium that the port's radio was reconfigured
// (its monitored channels changed), scheduling an interest-index rebuild
// before the next transmission. Gateways call this automatically on every
// ConfigEvent (S1/S2/S8 replans reconfigure radios mid-run); call it
// yourself after mutating a port's radio configuration directly with
// Radio.Reconfigure.
func (m *Medium) ReindexPort(*Port) { m.indexDirty = true }

// rebuildIndex recomputes portsByBin from every port's current radio
// configuration. Each configured channel registers its port under the
// bins spanning the channel plus two guard bins per side: a transmission
// can only be detected (overlap ≥ radio.DetectOverlapThreshold > 0) if
// its center lies within half its own bandwidth of the channel's edges,
// and half a bandwidth is at most 250 kHz (BW500) < 2·binWidth. Extra
// bins only cost false candidates, which Detects filters; a detecting
// port can never be missing from its packet's bin.
func (m *Medium) rebuildIndex() {
	m.indexDirty = false
	for b := range m.portsByBin {
		delete(m.portsByBin, b)
	}
	for _, p := range m.ports {
		for _, c := range p.Radio.Config().Channels {
			lo, hi := bin(c.Low())-2, bin(c.High())+2
			for b := lo; b <= hi; b++ {
				s := m.portsByBin[b]
				// The outer loop runs in port-id order, so each bin's
				// list stays id-sorted and duplicates from a port's own
				// adjacent channels are always at the tail.
				if n := len(s); n > 0 && s[n-1] == p {
					continue
				}
				m.portsByBin[b] = append(s, p)
			}
		}
	}
}

// interested returns the ports whose radios could detect a packet on ch,
// in port-id order (the lock-on scheduling order determinism relies on).
func (m *Medium) interested(ch region.Channel) []*Port {
	if m.indexDirty {
		m.rebuildIndex()
	}
	return m.portsByBin[bin(ch.Center)]
}

// rxSNR computes the received power and SNR of a transmission at a port.
// The log10/pow-heavy path-loss and antenna terms are memoized per
// (transmitter position, port) in dense per-port slices indexed by the
// transmission's interned position slot (a transmission that never went
// through Transmit interns its position here). The cache holds gains, not
// RSSIs: only the transmit-power offset varies between calls, so TPC never
// invalidates an entry.
func (m *Medium) rxSNR(tx *Transmission, p *Port) (rssi, snr float64) {
	if tx.posSlot == 0 {
		tx.posSlot = m.internPos(tx.Pos)
	}
	i := int(tx.posSlot) - 1
	if i >= len(p.gainOK) || !p.gainOK[i] {
		for len(p.gains) <= i {
			p.gains = append(p.gains, linkGain{})
			p.gainOK = append(p.gainOK, false)
		}
		// The static dB budget of the link: path loss with frozen
		// shadowing plus the port antenna's gain toward the transmitter.
		p.gains[i] = linkGain{
			pl:  m.env.PathLoss(tx.Pos, p.Pos),
			ant: p.Antenna.GainToward(p.Pos, tx.Pos),
		}
		p.gainOK[i] = true
	}
	g := p.gains[i]
	rssi = tx.PowerDBm - g.pl + g.ant
	return rssi, rssi - noiseFloor125
}

// internPos returns the dense slot of a transmitter position, assigning
// the next one on first sight. Duplicate positions share a slot.
func (m *Medium) internPos(pos phy.Point) int32 {
	if s, ok := m.posSlots[pos]; ok {
		return s
	}
	s := int32(len(m.posSlots) + 1)
	m.posSlots[pos] = s
	return s
}

// noiseFloor125 hoists the per-reception noise-floor computation (a log10
// per call) out of the judgement loops; every reception in these
// workloads is 125 kHz.
var noiseFloor125 = lora.NoiseFloorDBm(lora.BW125)

// InvalidateGains drops the cached link budgets involving port p. The
// cache assumes a port's position and antenna are fixed after Attach —
// true for every current caller, including gateway reconfiguration, which
// only touches the radio's channels; call this if a port is ever moved or
// re-antennaed
// in place.
func (m *Medium) InvalidateGains(p *Port) {
	for i := range p.gainOK {
		p.gainOK[i] = false
	}
}

// lockOnTask carries one (transmission, port) reception attempt from
// Transmit to the dispatcher entry at preamble end, and on into the
// decode judgement. Tasks are pooled on the medium's freelist: the run
// and judge closures are created once per task and survive recycling
// (they capture only the task pointer), so the steady-state lock-on path
// performs no per-packet-per-port heap allocation — previously two
// closures plus a Meta escape per detecting port.
type lockOnTask struct {
	m    *Medium
	p    *Port
	t    *Transmission
	meta radio.Meta
	rssi float64

	next    *lockOnTask
	runFn   func()
	judgeFn radio.Judge
}

func (m *Medium) newTask() *lockOnTask {
	k := m.taskFree
	if k == nil {
		k = &lockOnTask{m: m}
		k.runFn = k.run
		k.judgeFn = k.judge
		return k
	}
	m.taskFree = k.next
	k.next = nil
	return k
}

// releaseTask recycles a task once its reception attempt cannot be
// referenced again: after a pre-dispatch drop, a decoder-exhausted
// rejection, or the decode judgement (which the radio calls exactly once
// per accepted lock-on).
func (m *Medium) releaseTask(k *lockOnTask) {
	k.p, k.t = nil, nil
	k.meta = radio.Meta{}
	k.next = m.taskFree
	m.taskFree = k
}

// run is the dispatcher-entry event at t.LockOn.
func (k *lockOnTask) run() {
	m, p, t := k.m, k.p, k.t
	m.LockOns.Publish(LockOnEvent{Port: p, TX: t, Meta: k.meta})
	// Preamble suppression: a same-settings packet buried under a
	// ≥6 dB stronger one never yields a separate detection — the
	// per-channel detector sees a single preamble and locks onto
	// the dominant packet. Without this, collided losers would
	// burn decoders that real SX130x detectors never allocate.
	// An exhausted pool takes precedence: with no decoder to
	// dispatch, the drop is decoder contention no matter what the
	// preamble looked like.
	if p.Radio.FreeDecoders() > 0 {
		if u := m.buriedBy(t, p, k.rssi); u != nil {
			m.emitDrop(Drop{
				Port: p, TX: t, Reason: radio.DropChannelContention,
				InterNetwork: u.Network != t.Network,
			})
			m.releaseTask(k)
			return
		}
	}
	if !p.Radio.LockOn(k.meta, k.judgeFn) {
		m.releaseTask(k)
	}
}

// judge is the task's decode verdict callback; it recycles the task once
// the verdict is computed.
func (k *lockOnTask) judge() radio.DecodeVerdict {
	v := k.m.judge(k.t, k.p, k.rssi)
	k.m.releaseTask(k)
	return v
}

// Transmit schedules a packet transmission starting now. It computes the
// airtime, fans lock-on events out to every port whose radio detects the
// packet (consulting the interest index so only spectrally-nearby ports
// are asked), and arranges the decode judgement at packet end.
func (m *Medium) Transmit(tx Transmission) *Transmission {
	t := &tx
	t.ID = m.nextID
	m.nextID++
	params := t.Params()
	t.Start = m.sim.Now()
	t.LockOn = t.Start + des.FromDuration(params.PreambleDuration())
	t.End = t.Start + des.FromDuration(params.Airtime(t.PayloadLen))
	t.posSlot = m.internPos(t.Pos)
	air := t.End - t.Start
	m.horizon = max(m.horizon, air)

	m.prune()
	m.byID[t.ID] = t
	row := m.binOf(bin(t.Channel.Center))
	row.low, row.high = min(row.low, t.Channel.Low()), max(row.high, t.Channel.High())
	l := &row.lanes[t.DR]
	l.txs = append(l.txs, t)
	l.starts = append(l.starts, t.Start)
	l.maxAir = max(l.maxAir, air)

	m.TXStarts.Publish(t)

	if m.downPorts > 0 {
		// Rebooting gateways hear nothing, wherever the packet is in the
		// spectrum; report the loss as gateway downtime at every down
		// port, as the full port scan used to.
		for _, p := range m.ports {
			if p.down {
				m.emitDrop(Drop{Port: p, TX: t, Reason: radio.DropGatewayDown, Episode: p.downEpisode})
			}
		}
	}
	for _, p := range m.interested(t.Channel) {
		if p.down {
			continue
		}
		chain, ok := p.Radio.Detects(t.Channel)
		if !ok {
			// Frequency selectivity truncates the packet before the
			// pipeline; it never reaches the dispatcher. Not reported as
			// a drop: for misaligned coexisting networks this is the
			// *intended* isolation.
			continue
		}
		rssi, snr := m.rxSNR(t, p)
		if snr < lora.DemodFloorSNR(t.DR.SF()) {
			// Below the detector's floor: the preamble is never found.
			m.emitDrop(Drop{Port: p, TX: t, Reason: radio.DropWeakSignal})
			continue
		}
		k := m.newTask()
		k.p, k.t, k.rssi = p, t, rssi
		k.meta = radio.Meta{
			ID: t.ID, Network: t.Sync, SF: t.DR.SF(), Channel: t.Channel,
			Chain: chain, RSSIdBm: rssi, SNRdB: snr,
			LockOn: t.LockOn, End: t.End,
		}
		m.sim.At(t.LockOn, k.runFn)
	}

	if m.AirDone.Len() > 0 {
		// One microsecond after End so that every port's decode verdict
		// (scheduled at exactly End) has fired before finalization.
		m.sim.At(t.End+1, func() { m.AirDone.Publish(t) })
	}
	return t
}

// buriedBy returns the transmission that masks t's preamble at port p:
// same SF, near-full spectral overlap, overlapping t's preamble in time,
// and strong enough to bury it. Returns nil when t's preamble is
// detectable on its own.
func (m *Medium) buriedBy(t *Transmission, p *Port, rssiV float64) *Transmission {
	if !m.BuriesPreambles() {
		return nil
	}
	var hit *Transmission
	m.neighbors(t.Channel, t.DR, t.Start, func(u *Transmission) bool {
		if u.ID == t.ID {
			return true
		}
		if u.End <= t.Start || u.Start >= t.LockOn {
			return true // no overlap with t's preamble window
		}
		if t.Channel.Overlap(u.Channel) < SameSettingsOverlap {
			return true
		}
		if rssiU, _ := m.rxSNR(u, p); Buries(rssiU, rssiV) {
			hit = u
		}
		return hit == nil
	})
	return hit
}

// judge decides whether a locked-on packet decodes, by feeding every
// transmission that overlapped it in time and spectrum at this port to the
// Judgement. It runs at t.End.
func (m *Medium) judge(t *Transmission, p *Port, rssiV float64) radio.DecodeVerdict {
	j := &m.judgement
	j.Begin(m.Rule, rssiV)
	sf := t.DR.SF()
	m.neighbors(t.Channel, allDRs, t.Start, func(u *Transmission) bool {
		if u.ID == t.ID {
			return true
		}
		if u.End <= t.Start || u.Start >= t.End {
			return true // no time overlap
		}
		ov := t.Channel.Overlap(u.Channel)
		if ov <= 0 {
			return true // no spectral overlap
		}
		rssiU, _ := m.rxSNR(u, p)
		return j.Add(&Interferer{
			RSSI: rssiU, Overlap: ov,
			Rejection: lora.CoChannelRejection(sf, u.DR.SF()),
			SameSF:    u.DR.SF() == sf,
			Foreign:   u.Network != t.Network,
		})
	})
	v, foreign := j.Verdict(noiseFloorLin125, lora.DemodFloorSNR(sf))
	if v == radio.VerdictChannelCollision {
		m.collisionIntf[judgeKey{t.ID, p.id}] = foreign
	}
	return v
}

// pruneInterval throttles full prune passes. Under load, some retained
// transmission expires between almost every pair of transmissions, so
// pruning on every expiry would compact the lanes per packet — O(retained)
// each time, the dominant cost of the densest figures. Expired entries
// that linger until the next pass are invisible to judgement (they fail
// every time-overlap predicate, and each lane's binary search skips them
// wholesale), so the interval only bounds memory, not behavior: the lanes
// hold at most horizon+pruneInterval of history.
const pruneInterval = 750 * des.Millisecond

// prune drops the transmissions no verdict can ask for any more. A
// verdict on t looks at the transmissions that were on the air after
// t.Start, and is out by t.End; any t still unjudged (or yet to start)
// has t.Start > now-horizon, so whatever ended before now-horizon is
// beyond reach — however long the frames are. LookupTX holds for the
// same span, which covers a transmission's own last verdict at its End.
func (m *Medium) prune() {
	now := m.sim.Now()
	if now < m.lastPrune+pruneInterval {
		return
	}
	m.lastPrune = now
	cutoff := now - m.horizon
	for b := range m.bins {
		for dr := range m.bins[b].lanes {
			l := &m.bins[b].lanes[dr]
			n := 0
			for k, t := range l.txs {
				if t.End >= cutoff {
					l.txs[n], l.starts[n] = t, l.starts[k]
					n++
				} else {
					delete(m.byID, t.ID)
				}
			}
			// Zero the tail so the GC can reclaim dropped transmissions.
			clear(l.txs[n:])
			l.txs, l.starts = l.txs[:n], l.starts[:n]
		}
	}
}

func (m *Medium) emitDrop(d Drop) { m.Drops.Publish(d) }

// WirePort routes a port's radio results onto the medium's delivery and
// drop topics. Call once after creating the port, before any other
// subscriber on the radio's Results topic, so medium-level consumers
// observe a packet's fate before port-level ones (the order the gateway
// layer relies on).
func (m *Medium) WirePort(p *Port) {
	p.Radio.Results.Subscribe(func(res radio.Result) {
		t := m.LookupTX(res.Meta.ID)
		if t == nil {
			return
		}
		if res.Reason == radio.DropNone {
			m.Deliveries.Publish(Delivery{Port: p, TX: t, Meta: res.Meta})
			return
		}
		d := Drop{Port: p, TX: t, Reason: res.Reason}
		switch res.Reason {
		case radio.DropNoDecoder:
			// This callback runs synchronously inside LockOn, so the
			// radio's occupancy reflects the exact moment of the drop.
			d.InterNetwork = p.Radio.ForeignInUse() > 0
		case radio.DropChannelContention:
			k := judgeKey{t.ID, p.id}
			d.InterNetwork = m.collisionIntf[k]
			delete(m.collisionIntf, k)
		}
		m.emitDrop(d)
	})
}

// LookupTX resolves a transmission by id from its start until at least its
// last verdict (see prune), or nil once it has been pruned.
func (m *Medium) LookupTX(id int64) *Transmission { return m.byID[id] }

var noiseFloorLin125 = dbmToMw(noiseFloor125)
