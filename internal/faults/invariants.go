package faults

import (
	"fmt"
	"sort"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/sim"
)

// Invariants is the conservation checker paired with the injector: a
// pure event-bus subscriber (it schedules nothing on the DES clock and
// draws no randomness, so watching a run never perturbs it) that asserts
// the laws any fault mix must preserve:
//
//  1. Outcome conservation — every transmission that starts ends in
//     exactly one network-wide outcome, and no transmission gets two.
//  2. FCnt monotonicity — each device's served uplink frame counters
//     are strictly increasing even when the backhaul duplicates or
//     reorders gateway datagrams (the server's dedup and replay guards
//     must hold under chaos).
//  3. Decoder conservation — no radio ever allocates a decoder beyond
//     its chipset pool, nor acquires a new one beyond a degraded limit
//     (in-flight decodes may legally drain above a freshly lowered cap,
//     so only *growth* past the cap is a violation).
//  4. Bounded recovery — after an outage or degrade episode ends,
//     network-wide delivery throughput returns to at least
//     RecoveryFactor of its pre-episode level within RecoveryWindow.
//  5. Replan safety — across a live plan swap (NotePlanSwap), every
//     packet in flight at the swap instant is finalized exactly once:
//     none double-counted by the old and new plan, none silently lost.
//     FCnt monotonicity (check 2) continues to hold through mid-run
//     channel reassignment with no special casing.
//
// Construct with Watch before the run, optionally WatchInjector for the
// recovery check, then call Finish after the run for the verdict.
type Invariants struct {
	// RecoveryWindow is the throughput bucket width and the post-episode
	// settling allowance of check 4.
	RecoveryWindow des.Time
	// RecoveryFactor is the fraction of pre-episode throughput that must
	// return after recovery.
	RecoveryFactor float64
	// MaxViolations caps the report (further violations are counted but
	// not recorded).
	MaxViolations int

	net *sim.Network

	pending map[int64]des.Time // tx id → scheduled End, awaiting outcome
	done    map[int64]bool     // tx id → outcome seen
	started int
	dropped int // violations beyond MaxViolations

	lastFCnt map[devKey]uint32
	seenFCnt map[devKey]bool

	prevInUse map[*medium.Port]int

	// delivered buckets successful outcomes by RecoveryWindow for the
	// recovery check; lastBucket is the newest bucket with any delivery,
	// bounding the measurable range (traffic may stop before the run's
	// drain time ends).
	delivered  map[int64]int
	lastBucket int64

	// inj is the injector whose episode windows the recovery check
	// measures; nil skips the check.
	inj *Injector

	// swapTracked holds the ids of transmissions that were in flight at
	// the most recent plan swap (check 5), each mapped to how many
	// outcomes it received since the swap.
	swapTracked map[int64]int

	violations []string
}

type devKey struct {
	op   medium.NetworkID
	addr frame.DevAddr
}

// Watch subscribes an invariant checker to a composed scenario. Call
// before the run starts so no transmission escapes observation.
func Watch(n *sim.Network) *Invariants {
	v := &Invariants{
		RecoveryWindow: 5 * des.Second,
		RecoveryFactor: 0.5,
		MaxViolations:  64,
		net:            n,
		pending:        make(map[int64]des.Time),
		done:           make(map[int64]bool),
		lastFCnt:       make(map[devKey]uint32),
		seenFCnt:       make(map[devKey]bool),
		prevInUse:      make(map[*medium.Port]int),
		delivered:      make(map[int64]int),
		lastBucket:     -1,
	}
	n.Med.TXStarts.Subscribe(v.txStart)
	n.Col.Outcomes.Subscribe(v.outcome)
	n.Med.LockOns.Subscribe(func(e medium.LockOnEvent) { v.occupancy(e.Port) })
	n.Med.Deliveries.Subscribe(func(d medium.Delivery) { v.occupancy(d.Port) })
	n.Med.Drops.Subscribe(func(d medium.Drop) { v.occupancy(d.Port) })
	for _, op := range n.Operators {
		op := op
		op.Server.Served.Subscribe(func(d netserver.Data) { v.served(op.ID, d) })
	}
	return v
}

// WatchInjector points the bounded-recovery check at the injector's
// record of episode windows.
func (v *Invariants) WatchInjector(inj *Injector) { v.inj = inj }

func (v *Invariants) violate(format string, args ...any) {
	if len(v.violations) >= v.MaxViolations {
		v.dropped++
		return
	}
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

func (v *Invariants) txStart(t *medium.Transmission) {
	v.started++
	if v.done[t.ID] {
		v.violate("tx %d restarted after its outcome", t.ID)
		return
	}
	if _, ok := v.pending[t.ID]; ok {
		v.violate("tx %d started twice", t.ID)
		return
	}
	v.pending[t.ID] = t.End
}

func (v *Invariants) outcome(o metrics.Outcome) {
	id := o.TX.ID
	if n, ok := v.swapTracked[id]; ok {
		v.swapTracked[id] = n + 1
		if n+1 > 1 {
			v.violate("tx %d finalized %d times across a plan swap", id, n+1)
		}
	}
	if v.done[id] {
		v.violate("tx %d finalized twice", id)
		return
	}
	if _, ok := v.pending[id]; !ok {
		v.violate("tx %d has an outcome but no start", id)
	}
	delete(v.pending, id)
	v.done[id] = true
	if o.Received {
		b := int64(v.net.Sim.Now() / v.RecoveryWindow)
		v.delivered[b]++
		if b > v.lastBucket {
			v.lastBucket = b
		}
	}
}

// occupancy checks decoder conservation at a port on every pipeline
// event. Growth is judged against the previous observation: a pool
// degraded below its current occupancy legally drains, but may never
// acquire while above the cap.
func (v *Invariants) occupancy(p *medium.Port) {
	in := p.Radio.InUse()
	if in < 0 {
		v.violate("gw %d decoder count negative (%d)", p.Index(), in)
	}
	if in > p.Radio.Chipset().Decoders {
		v.violate("gw %d holds %d decoders, chipset pool is %d",
			p.Index(), in, p.Radio.Chipset().Decoders)
	}
	if lim := p.Radio.DecoderLimit(); in > lim && in > v.prevInUse[p] {
		v.violate("gw %d allocated a decoder beyond degraded limit (%d > %d)",
			p.Index(), in, lim)
	}
	v.prevInUse[p] = in
}

// NotePlanSwap marks a live plan swap (check 5): every transmission
// currently in flight is tracked until it receives exactly one outcome.
// Wire it to the replanning controller's decision events — only adopted
// swaps that actually push a diff need the mark, but marking every
// decision is harmless. Successive swaps fold into one tracking set;
// ids already tracked keep their outcome counts.
func (v *Invariants) NotePlanSwap(at des.Time) {
	if v.swapTracked == nil {
		v.swapTracked = make(map[int64]int)
	}
	for id := range v.pending {
		if _, ok := v.swapTracked[id]; !ok {
			v.swapTracked[id] = 0
		}
	}
}

func (v *Invariants) served(op medium.NetworkID, d netserver.Data) {
	k := devKey{op: op, addr: d.Dev.Addr}
	if v.seenFCnt[k] && d.FCnt <= v.lastFCnt[k] {
		v.violate("net %d dev %v served FCnt %d after %d (duplicate delivery)",
			op, d.Dev.Addr, d.FCnt, v.lastFCnt[k])
		return
	}
	v.seenFCnt[k] = true
	v.lastFCnt[k] = d.FCnt
}

// Finish runs the end-of-run checks (outcome completeness, bounded
// recovery) and returns every recorded violation, deterministically
// ordered. An empty slice means all invariants held.
func (v *Invariants) Finish() []string {
	now := v.net.Sim.Now()
	var stale []int64
	for id, end := range v.pending {
		// Grace for packets genuinely still on the air when the run was
		// cut off mid-flight: only transmissions whose decode deadline
		// passed are violations.
		if end+1 < now {
			stale = append(stale, id)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, id := range stale {
		v.violate("tx %d started but never got an outcome", id)
	}
	// Swap-tracked packets that never finalized get the plan-swap
	// attribution on top of the generic staleness report, with the same
	// mid-flight grace.
	var lost []int64
	for id, n := range v.swapTracked {
		if n != 0 {
			continue
		}
		if end, ok := v.pending[id]; !ok || end+1 < now {
			lost = append(lost, id)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	for _, id := range lost {
		v.violate("tx %d in flight at a plan swap was never finalized", id)
	}
	v.checkRecovery(now)
	if v.dropped > 0 {
		v.violations = append(v.violations,
			fmt.Sprintf("... and %d more violations beyond the cap", v.dropped))
	}
	return v.violations
}

// checkRecovery compares delivery throughput before each closed outage
// or degrade window with throughput after its recovery allowance.
// Episodes too close to the run boundaries to measure either side are
// skipped, as is the check entirely when the baseline is too thin to be
// meaningful (<1 delivery per bucket on average).
func (v *Invariants) checkRecovery(now des.Time) {
	if v.inj == nil {
		return
	}
	w := v.RecoveryWindow
	for _, s := range v.inj.windows {
		if !s.closed || (s.ep.Kind != KindGatewayOutage && s.ep.Kind != KindDecoderDegrade) {
			continue
		}
		preHi := int64(s.open / w) // bucket containing the start, excluded
		preLo := preHi - 3
		if preLo < 0 {
			preLo = 0
		}
		if preHi <= preLo {
			continue
		}
		// Skip the settling bucket right after the episode, then measure,
		// never past the run's clock or the last bucket that saw any
		// delivery — traffic generators usually stop before the drain
		// time ends, and silence after the whole workload finished is not
		// a recovery failure.
		postLo := int64(s.close/w) + 2
		postHi := postLo + 3
		if postHi*int64(w) > int64(now) {
			postHi = int64(now) / int64(w)
		}
		// The last delivery bucket is excluded too: it is almost always
		// only partially covered by traffic, and reading it would dilute
		// the post-recovery mean.
		if postHi > v.lastBucket {
			postHi = v.lastBucket
		}
		if postHi <= postLo {
			continue
		}
		pre := v.bucketMean(preLo, preHi)
		post := v.bucketMean(postLo, postHi)
		if pre < 1 {
			continue
		}
		if post < v.RecoveryFactor*pre {
			v.violate("%s: throughput did not recover (pre %.1f/bucket, post %.1f/bucket)",
				s.ep, pre, post)
		}
	}
}

func (v *Invariants) bucketMean(lo, hi int64) float64 {
	total := 0
	for b := lo; b < hi; b++ {
		total += v.delivered[b]
	}
	return float64(total) / float64(hi-lo)
}

// Started returns how many transmissions the checker observed.
func (v *Invariants) Started() int { return v.started }

// Violations returns the violations recorded so far (before Finish's
// end-of-run checks).
func (v *Invariants) Violations() []string { return v.violations }
