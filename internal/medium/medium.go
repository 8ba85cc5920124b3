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

	// active holds transmissions that may still interfere with an ongoing
	// reception (pruned as time advances), with two indexes: byID for
	// result routing and byBin (200 kHz frequency bins) so interference
	// scans only touch spectrally-nearby packets.
	active []*Transmission
	byID   map[int64]*Transmission
	byBin  map[int64][]*Transmission

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

	// maxAir is the longest airtime of any transmission so far — the
	// bound neighbors uses to skip provably-ended history in its
	// start-sorted bin lists.
	maxAir des.Time
	// lastPrune is when the last full prune pass ran (see pruneInterval).
	lastPrune des.Time

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
		byBin:         make(map[int64][]*Transmission),
		portsByBin:    make(map[int64][]*Port),
		collisionIntf: make(map[judgeKey]bool),
		posSlots:      make(map[phy.Point]int32),
	}
}

// binWidth buckets transmissions by center frequency; a 125 kHz channel
// can only overlap packets within the adjacent bins.
const binWidth = 200_000

func bin(f region.Hz) int64 { return int64(f) / binWidth }

// neighbors calls fn for every active transmission whose channel could
// spectrally overlap ch (same or adjacent frequency bin) and whose
// airtime could overlap a window starting at winStart. Each bin list is
// sorted by Start (Transmit appends in simulation order), so entries old
// enough that even the longest frame seen so far (maxAir) would have
// ended before winStart are skipped with a binary search instead of a
// scan — under retention-length history and short frames that is most of
// the list. Callers still apply their exact time-overlap predicate; the
// skip only removes transmissions that provably fail it.
func (m *Medium) neighbors(ch region.Channel, winStart des.Time, fn func(*Transmission)) {
	cutoff := winStart - m.maxAir
	b := bin(ch.Center)
	for d := int64(-1); d <= 1; d++ {
		list := m.byBin[b+d]
		lo, hi := 0, len(list)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if list[mid].Start < cutoff {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for _, u := range list[lo:] {
			fn(u)
		}
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
	if air := t.End - t.Start; air > m.maxAir {
		m.maxAir = air
	}

	m.prune()
	m.active = append(m.active, t)
	m.byID[t.ID] = t
	b := bin(t.Channel.Center)
	m.byBin[b] = append(m.byBin[b], t)

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
	m.neighbors(t.Channel, t.Start, func(u *Transmission) {
		if hit != nil || u.ID == t.ID || u.DR.SF() != t.DR.SF() {
			return
		}
		if u.End <= t.Start || u.Start >= t.LockOn {
			return // no overlap with t's preamble window
		}
		if t.Channel.Overlap(u.Channel) < SameSettingsOverlap {
			return
		}
		if rssiU, _ := m.rxSNR(u, p); Buries(rssiU, rssiV) {
			hit = u
		}
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
	settled := false
	m.neighbors(t.Channel, t.Start, func(u *Transmission) {
		if settled || u.ID == t.ID {
			return
		}
		if u.End <= t.Start || u.Start >= t.End {
			return // no time overlap
		}
		ov := t.Channel.Overlap(u.Channel)
		if ov <= 0 {
			return // no spectral overlap
		}
		rssiU, _ := m.rxSNR(u, p)
		settled = !j.Add(&Interferer{
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

// retention is how long a finished transmission stays in the active set.
// Judgement needs interferers overlapping a live packet's airtime; the
// longest frame in these workloads is ≈2.3 s (SF12), so 3 s is safe.
const retention = 3 * des.Second

// pruneInterval throttles full prune passes. Under load, some entry of
// the active set expires between almost every pair of transmissions, so
// pruning on every expiry would rebuild the indexes per packet —
// O(active) each time, the dominant cost of the densest figures. Expired
// entries that linger until the next pass are invisible to judgement
// (they fail every time-overlap predicate, and the neighbors binary
// search skips them wholesale), so the interval only bounds memory, not
// behavior: the active set holds at most retention+pruneInterval of
// history.
const pruneInterval = retention / 4

// prune drops transmissions that can no longer affect any reception and
// rebuilds the lookup indexes.
func (m *Medium) prune() {
	now := m.sim.Now()
	cutoff := now - retention
	if cutoff <= 0 || len(m.active) == 0 || m.active[0].End >= cutoff ||
		now < m.lastPrune+pruneInterval {
		return
	}
	m.lastPrune = now
	kept := m.active[:0]
	for _, t := range m.active {
		if t.End >= cutoff {
			kept = append(kept, t)
		} else {
			delete(m.byID, t.ID)
		}
	}
	// Zero the tail so the GC can reclaim dropped transmissions.
	for i := len(kept); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = kept
	for b, list := range m.byBin {
		kl := list[:0]
		for _, t := range list {
			if t.End >= cutoff {
				kl = append(kl, t)
			}
		}
		for i := len(kl); i < len(list); i++ {
			list[i] = nil
		}
		if len(kl) == 0 {
			delete(m.byBin, b)
		} else {
			m.byBin[b] = kl
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

// LookupTX resolves a recently active transmission by id, or nil if it has
// been pruned.
func (m *Medium) LookupTX(id int64) *Transmission { return m.byID[id] }

var noiseFloorLin125 = dbmToMw(noiseFloor125)
