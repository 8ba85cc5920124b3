package soa

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/runner"
)

// sendRec is one generated uplink, before cell fan-out.
type sendRec struct {
	at            des.Time
	dev           int32
	ch            int32
	dr, net, sync uint8
}

// txRec is one transmission as a cell shard sees it.
type txRec struct {
	start, lockOn, end des.Time
	gid                int64
	dev                int32
	ch                 int32
	dr, net, sync      uint8
}

// swEvent is a pending lock-on or decode-end at one port. Decode-ends
// order before lock-ons at the same instant (the freed decoder is
// available to the new preamble), and remaining ties break on the
// transmission's global order then the port id — all grid-invariant.
type swEvent struct {
	at   des.Time
	rssi float64
	tx   int32
	port int32
	kind uint8
}

const (
	evEnd  uint8 = 0
	evLock uint8 = 1
)

// contrib is one port-level outcome contribution: codeDelivered, or
// 1 + the loss-cause precedence (lower wins, matching metrics).
type contrib struct {
	gid  int64
	code uint8
}

const codeDelivered uint8 = 0

func codeDecoder(inter bool) uint8 {
	if inter {
		return 1
	}
	return 2
}

func codeChannel(inter bool) uint8 {
	if inter {
		return 3
	}
	return 4
}

// precNone marks a pending transmission with no drop contribution yet.
const precNone = 0xFF

// causeForPrec maps a pending record's precedence back to its cause;
// precNone (nobody dropped it: out of everyone's range) counts as Others.
func causeForPrec(p uint8) metrics.Cause {
	if int(p) < len(metrics.Precedence) {
		return metrics.Precedence[p]
	}
	return metrics.Others
}

// pendRec tracks one transmission network-wide until it finalizes.
type pendRec struct {
	end       des.Time
	delivered int32
	prec      uint8
	net, dr   uint8
	done      bool
}

// gap draws the device's next Poisson inter-arrival, mirroring
// traffic.PoissonUser.nextGap (exponential with a 1 ms floor).
func (c *Core) gap(d int) des.Time {
	z := splitmix64(&c.devs.rng[d])
	u := (float64(z>>11) + 1) / (1 << 53)
	g := des.Time(-math.Log(u) * float64(c.cfg.MeanInterval))
	if g < des.Millisecond {
		g = des.Millisecond
	}
	return g
}

// genEpoch advances every device's traffic state to t1, collecting the
// uplinks sent in the epoch into c.sends, globally ordered by
// (start, device). Devices are swept in fixed index ranges, so the
// result is identical for any worker count. The per-device loop mirrors
// traffic.PoissonUser.tick: a send consumes an RNG draw for the next
// arrival; a duty-cycle or slot-grid deferral moves the tick without
// drawing. A slotted send landing at or past the horizon stays pending
// (nextTick unchanged): mac.SlotGrid.TxTime is a pure function of the
// frozen device state, so the next epoch recomputes the same instant —
// which keeps the schedule identical for every epoch length.
func (c *Core) genEpoch(t1 des.Time) {
	n := c.devs.Len()
	c.sends = c.sends[:0]
	if n == 0 {
		return
	}
	const shardSize = 1 << 15
	nShards := (n + shardSize - 1) / shardSize
	for len(c.sendBufs) < nShards {
		c.sendBufs = append(c.sendBufs, nil)
	}
	c.genT1 = t1
	if c.genFn == nil {
		// One persistent closure (capturing only the receiver) keeps the
		// steady-state epoch allocation-free; an inline literal would box
		// its captures on every call.
		c.genFn = c.genShard
	}
	runner.RunCells(nShards, c.genFn)
	for _, buf := range c.sendBufs[:nShards] {
		c.sends = append(c.sends, buf...)
	}
	// A device never emits two sends at the same instant (gaps are ≥1 ms),
	// so (start, device) is a strict total order. slices.SortFunc keeps
	// the steady-state path allocation-free where sort.Slice would box.
	slices.SortFunc(c.sends, func(x, y sendRec) int {
		if x.at != y.at {
			return cmp.Compare(x.at, y.at)
		}
		return cmp.Compare(x.dev, y.dev)
	})
}

// genShard advances one fixed device index range to the c.genT1 horizon —
// the parallel body of genEpoch.
func (c *Core) genShard(si int) {
	const shardSize = 1 << 15
	n := c.devs.Len()
	t1 := c.genT1
	dc := c.cfg.DutyCycle
	grid := c.cfg.Slots
	lo, hi := si*shardSize, (si+1)*shardSize
	if hi > n {
		hi = n
	}
	buf := c.sendBufs[si][:0]
	a := &c.devs
	for d := lo; d < hi; d++ {
		nt := a.nextTick[d]
		for nt < t1 {
			if nt >= a.NextAllowed[d] {
				at := nt
				if grid != nil {
					at = grid.TxTime(uint32(d), a.DR[d], nt, a.Anchor[d])
					if at >= t1 {
						break
					}
				}
				set := c.setTab[a.ChSet[d]]
				ch := set[int(a.ChHop[d])%len(set)]
				a.ChHop[d]++
				a.FCnt[d]++
				air := c.air[a.DR[d]]
				if dc > 0 && dc <= 1 {
					a.NextAllowed[d] = at + air + des.Time(float64(air)*(1-dc)/dc)
				}
				buf = append(buf, sendRec{
					at: at, dev: int32(d), ch: ch,
					dr: a.DR[d], net: a.Net[d], sync: a.Sync[d],
				})
				nt = at + c.gap(d)
			} else {
				nt = a.NextAllowed[d]
			}
		}
		a.nextTick[d] = nt
	}
	c.sendBufs[si] = buf
}

// processEpoch sweeps the epoch's sends up to horizon t1 and finalizes
// the transmissions that have left the air.
func (c *Core) processEpoch(t1 des.Time) {
	c.sweepEpoch(t1)
	c.finalize(t1)
}

// sweepEpoch fans c.sends out to the reachable cells' queues, sweeps
// every cell in parallel up to horizon t1, then serially merges the
// cells' outcome contributions into the pending window.
func (c *Core) sweepEpoch(t1 des.Time) {
	for i := range c.sends {
		s := &c.sends[i]
		gid := c.gidNext
		c.gidNext++
		tr := txRec{
			start: s.at, lockOn: s.at + c.pre[s.dr], end: s.at + c.air[s.dr],
			gid: gid, dev: s.dev, ch: s.ch, dr: s.dr, net: s.net, sync: s.sync,
		}
		c.pend = append(c.pend, pendRec{end: tr.end, prec: precNone, net: s.net, dr: s.dr})
		b := c.chanBinIdx[s.ch]
		for _, tc := range c.targets[c.devs.cell[s.dev]] {
			cell := &c.cells[tc]
			// No port within the guard bins means the transmission can
			// neither be received here nor overlap any victim's ±1-bin
			// judgement scan: skip the cell entirely.
			if len(cell.interest[b]) == 0 {
				continue
			}
			cell.queue = append(cell.queue, tr)
		}
	}

	c.sweepT1 = t1
	if c.sweepFn == nil {
		c.sweepFn = c.sweepShard // cached for the same reason as genFn
	}
	runner.RunCells(len(c.cells), c.sweepFn)

	// Deterministic serial merge: cells ascending; the fold itself
	// (delivery count + min precedence) is commutative anyway.
	for i := range c.cells {
		cell := &c.cells[i]
		for _, cb := range cell.contribs {
			p := &c.pend[cb.gid-c.pendStart]
			if cb.code == codeDelivered {
				p.delivered++
			} else if pr := cb.code - 1; pr < p.prec {
				p.prec = pr
			}
		}
		cell.contribs = cell.contribs[:0]
		cell.queue = cell.queue[:0]
	}
}

// sweepShard sweeps one cell to the c.sweepT1 horizon — the parallel body
// of sweepEpoch.
func (c *Core) sweepShard(i int) { c.sweepCell(&c.cells[i], c.sweepT1) }

// finalize accumulates every pending transmission whose decode-end has
// passed (end < t1 — all its events have been swept) into the run stats,
// then trims the settled prefix of the pending window.
func (c *Core) finalize(t1 des.Time) {
	phyBytes := c.cfg.PayloadLen + LoRaWANOverhead
	for i := range c.pend {
		p := &c.pend[i]
		if p.done || p.end >= t1 {
			continue
		}
		p.done = true
		c.seen[p.net] = true
		st := &c.stats[p.net]
		st.Sent++
		if p.delivered > 0 {
			st.Received++
			st.GatewayCopies += int(p.delivered)
			st.PayloadBytes += phyBytes
			st.ByDR[p.dr]++
		} else {
			st.Losses[causeForPrec(p.prec)]++
		}
	}
	n := 0
	for n < len(c.pend) && c.pend[n].done {
		n++
	}
	if n > 0 {
		c.pend = c.pend[:copy(c.pend, c.pend[n:])]
		c.pendStart += int64(n)
	}
}

// sweepCell merges the cell's queued transmissions and pending events in
// time order up to horizon t1 (events strictly before t1 fire; at a tie
// between a queue insertion and an event, the insertion goes first —
// harmless, since every overlap predicate is exclusive at the boundary).
func (c *Core) sweepCell(cs *cellState, t1 des.Time) {
	qi := 0
	for {
		nq := maxTime
		if qi < len(cs.queue) {
			nq = cs.queue[qi].start
		}
		if len(cs.heap) > 0 && cs.heap[0].at < nq {
			if cs.heap[0].at >= t1 {
				break
			}
			c.handleEvent(cs, cs.popEvent())
		} else if qi < len(cs.queue) {
			c.insertTx(cs, cs.queue[qi])
			qi++
		} else {
			break
		}
	}
	if t1 != maxTime {
		c.compactCell(cs, t1)
	}
}

// rssiAt is the identical link budget medium.rxSNR evaluates: TX power
// minus path loss plus the port antenna's gain toward the device.
func (c *Core) rssiAt(dev int32, p *portState) float64 {
	pos := phy.Point{X: c.devs.X[dev], Y: c.devs.Y[dev]}
	return c.devs.Power[dev] - c.cfg.Env.PathLoss(pos, p.pos) + p.ant.GainToward(p.pos, pos)
}

// link returns store[ti]'s received power at port p of cell cs, or -Inf
// when the device lies beyond reach2 — c.floorR2 or c.lockR2[dr], squared
// radii past which no shadow draw lifts a link over the floor the caller
// is about to compare against, so the gate changes no verdict. Links are
// static for the run: each is budgeted at most once, into the cell's memo,
// and a memo hit never touches the arena.
func (c *Core) link(cs *cellState, ti int32, p *portState, reach2 float64) float64 {
	m := &cs.rssi[int(ti)*len(cs.ports)+int(p.slot)]
	if !math.IsNaN(*m) {
		return *m
	}
	dev := cs.store[ti].dev
	dx, dy := c.devs.X[dev]-p.pos.X, c.devs.Y[dev]-p.pos.Y
	if dx*dx+dy*dy > reach2 {
		return math.Inf(-1)
	}
	*m = c.rssiAt(dev, p)
	if c.onBudget != nil {
		c.onBudget(cs, ti, p)
	}
	return *m
}

// insertTx registers a transmission in the cell's active store and bin
// index, and fans lock-on events out to the interested ports that detect
// it above the demodulation floor (a below-floor reception never finds
// the preamble; network-wide it defaults to an "others" loss, exactly
// like medium's DropWeakSignal).
func (c *Core) insertTx(cs *cellState, t txRec) {
	ti := int32(len(cs.store))
	cs.store = append(cs.store, t)
	for range cs.ports {
		cs.rssi = append(cs.rssi, math.NaN())
	}
	b := c.chanBinIdx[t.ch]
	cs.bins[b] = append(cs.bins[b], ti)
	for _, pi := range cs.interest[b] {
		p := &c.ports[pi]
		if !p.detect[t.ch] {
			continue
		}
		rssi := c.link(cs, ti, p, c.lockR2[t.dr])
		if rssi-c.noiseDBm < c.demod[t.dr] {
			continue
		}
		cs.pushEvent(swEvent{at: t.lockOn, rssi: rssi, tx: ti, port: pi, kind: evLock})
	}
}

// handleEvent processes one lock-on or decode-end, mirroring the
// dispatcher semantics of medium.lockOnTask.run and radio.Radio: a free
// decoder first checks preamble burial (skipped under CIC), an exhausted
// pool drops as decoder contention with the live foreign-occupancy flag,
// and a decode-end releases its decoder before judgement.
func (c *Core) handleEvent(cs *cellState, ev swEvent) {
	t := &cs.store[ev.tx]
	p := &c.ports[ev.port]
	if ev.kind == evLock {
		if p.busy < p.decoders && c.rule.BuriesPreambles() {
			if uNet, buried := c.buriedBy(cs, t, p, ev.rssi); buried {
				cs.emit(t.gid, codeChannel(uNet != t.net))
				return
			}
		}
		if p.busy >= p.decoders {
			cs.emit(t.gid, codeDecoder(p.busyForeign > 0))
			return
		}
		p.busy++
		if p.sync != t.sync {
			p.busyForeign++
		}
		cs.pushEvent(swEvent{at: t.end, rssi: ev.rssi, tx: ev.tx, port: ev.port, kind: evEnd})
		return
	}
	// Decode end: free the decoder, then judge.
	p.busy--
	if p.sync != t.sync {
		p.busyForeign--
	}
	switch v, inter := c.judge(cs, t, p, ev.rssi); {
	case v == radio.VerdictChannelCollision:
		cs.emit(t.gid, codeChannel(inter))
	case v == radio.VerdictOK && p.sync == t.sync:
		// A decoded foreign-sync packet is filtered (DropForeignNetwork),
		// which the network-wide accounting ignores; a weak decode
		// defaults to "others". Only a same-sync decode contributes.
		cs.emit(t.gid, codeDelivered)
	}
}

func (cs *cellState) emit(gid int64, code uint8) {
	cs.contribs = append(cs.contribs, contrib{gid: gid, code: code})
}

// scanNeighbors visits the cell's active transmissions within ±1
// frequency bin of binIdx whose start lies in [winStart-maxAir, until),
// in (bin, start, gid) order — the order medium.neighbors yields, but
// not its walk: medium enters per-(bin, DR) lanes at their live suffix
// and gates bins on covered spectrum, while this is one binary search per
// bin on the longest airtime (lanes measured slower here, ROADMAP item 5).
// fn also receives the transmission's store index and returns false to
// stop the whole scan.
func (c *Core) scanNeighbors(cs *cellState, binIdx int32, winStart, until des.Time, fn func(ui int32, u *txRec) bool) {
	lo := winStart - c.maxAir
	for db := int32(-1); db <= 1; db++ {
		b := binIdx + db
		if b < 0 || int(b) >= c.nbins {
			continue
		}
		list := cs.bins[b]
		i := sort.Search(len(list), func(k int) bool { return cs.store[list[k]].start >= lo })
		for ; i < len(list); i++ {
			u := &cs.store[list[i]]
			if u.start >= until {
				break
			}
			if !fn(list[i], u) {
				return
			}
		}
	}
}

// buriedBy reports whether t's preamble at port p is masked by a
// same-settings transmission strong enough to bury it, and that
// transmission's network. The interference floor cannot change the verdict
// here — a burying interferer is ≥6 dB above a demod-floor victim, far
// over the floor — it only lets link's distance gate skip the budgets of
// interferers too far away to matter.
func (c *Core) buriedBy(cs *cellState, t *txRec, p *portState, rssiV float64) (uNet uint8, buried bool) {
	c.scanNeighbors(cs, c.chanBinIdx[t.ch], t.start, t.lockOn, func(ui int32, u *txRec) bool {
		if u.gid == t.gid || u.dr != t.dr || u.end <= t.start {
			return true
		}
		if c.ov[t.ch][u.ch] < medium.SameSettingsOverlap {
			return true
		}
		rssiU := c.link(cs, ui, p, c.floorR2)
		if rssiU < InterferenceFloorDBm || !medium.Buries(rssiU, rssiV) {
			return true
		}
		uNet, buried = u.net, true
		return false
	})
	return uNet, buried
}

// judge decides a locked-on packet's decode outcome at its end by feeding
// the cell's time- and spectrum-overlapping transmissions to the cell's
// medium.Judgement; inter reports a fatal collider from another network.
// Interferers below InterferenceFloorDBm are skipped (so they are absent
// from CIC's collider census too) — the package-level determinism
// deviation.
func (c *Core) judge(cs *cellState, t *txRec, p *portState, rssiV float64) (v radio.DecodeVerdict, inter bool) {
	j := &cs.judgement
	j.Begin(c.rule, rssiV)
	c.scanNeighbors(cs, c.chanBinIdx[t.ch], t.start, t.end, func(ui int32, u *txRec) bool {
		if u.gid == t.gid || u.end <= t.start {
			return true
		}
		ov := c.ov[t.ch][u.ch]
		if ov <= 0 {
			return true
		}
		rssiU := c.link(cs, ui, p, c.floorR2)
		if rssiU < InterferenceFloorDBm {
			return true
		}
		return j.Add(&medium.Interferer{
			RSSI: rssiU, Overlap: ov,
			Rejection: c.rej[t.dr][u.dr],
			SameSF:    u.dr == t.dr,
			Foreign:   u.net != t.net,
		})
	})
	return j.Verdict(c.noiseLin, c.demod[t.dr])
}

// compactCell drops store entries that can no longer overlap any pending
// or future reception: a future victim starts after t1-maxAir (it ends at
// or after t1), so only interferers ending after that boundary matter.
// The remap is monotone, preserving every bin list's (start, gid) order,
// and every heap event's transmission survives (its at ≥ t1 implies
// end ≥ t1).
func (c *Core) compactCell(cs *cellState, t1 des.Time) {
	cutoff := t1 - c.maxAir
	if len(cs.store) == 0 || cs.store[0].end > cutoff {
		return
	}
	for len(cs.remap) < len(cs.store) {
		cs.remap = append(cs.remap, 0)
	}
	n, np := 0, len(cs.ports)
	for i := range cs.store {
		if cs.store[i].end > cutoff {
			cs.remap[i] = int32(n)
			if n != i {
				cs.store[n] = cs.store[i]
				copy(cs.rssi[n*np:(n+1)*np], cs.rssi[i*np:(i+1)*np])
			}
			n++
		} else {
			cs.remap[i] = -1
		}
	}
	if n == len(cs.store) {
		return
	}
	cs.store = cs.store[:n]
	cs.rssi = cs.rssi[:n*np]
	for b := range cs.bins {
		list := cs.bins[b]
		k := 0
		for _, ti := range list {
			if r := cs.remap[ti]; r >= 0 {
				list[k] = r
				k++
			}
		}
		cs.bins[b] = list[:k]
	}
	for i := range cs.heap {
		cs.heap[i].tx = cs.remap[cs.heap[i].tx]
	}
}

// Event heap: a plain binary min-heap ordered by (at, kind, tx, port).

func evLess(a, b swEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.tx != b.tx {
		return a.tx < b.tx
	}
	return a.port < b.port
}

func (cs *cellState) pushEvent(ev swEvent) {
	cs.heap = append(cs.heap, ev)
	i := len(cs.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(cs.heap[i], cs.heap[parent]) {
			break
		}
		cs.heap[i], cs.heap[parent] = cs.heap[parent], cs.heap[i]
		i = parent
	}
}

func (cs *cellState) popEvent() swEvent {
	top := cs.heap[0]
	last := len(cs.heap) - 1
	cs.heap[0] = cs.heap[last]
	cs.heap = cs.heap[:last]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= last {
			break
		}
		if r := kid + 1; r < last && evLess(cs.heap[r], cs.heap[kid]) {
			kid = r
		}
		if !evLess(cs.heap[kid], cs.heap[i]) {
			break
		}
		cs.heap[i], cs.heap[kid] = cs.heap[kid], cs.heap[i]
		i = kid
	}
	return top
}
