package experiments

import (
	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/scenario"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var figAdaptive = Experiment{
	ID:    "fig-adaptive",
	Title: "Recovery time vs fault intensity: static plan vs closed-loop replanning",
	Paper: "Adaptivity extension: AlphaWAN's planner runs once and never reacts; a Master-side control loop that replans from live telemetry when gateways fail or degrade should recover delivery throughput measurably faster than the static plan, at every fault intensity, without violating any conservation invariant across plan swaps.",
	Run:   runAdaptive,
}

// adaptPlan is the canonical fault schedule of the sweep, in absolute
// seconds: a long outage of gateway 0 (stranding the nodes its planned
// channels serve) and a decoder degrade on gateway 3 (halving the other
// operator's second pool). StartS stays fixed under Plan.Scale — only
// durations shrink with intensity — so recovery is always measured from
// the same instant.
func adaptPlan(trafficStart, window des.Time) *faults.Plan {
	t0 := float64(trafficStart) / float64(des.Second)
	w := float64(window) / float64(des.Second)
	gw0, gw3 := 0, 3
	p := &faults.Plan{Episodes: []faults.Episode{
		{Kind: faults.KindGatewayOutage, Gateway: &gw0, StartS: t0 + w/3, EndS: t0 + 2*w/3},
		{Kind: faults.KindDecoderDegrade, Gateway: &gw3, StartS: t0 + w/6, EndS: t0 + w/2, Decoders: 2},
	}}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// adaptCell is one (intensity, mode) cell's outcome.
type adaptCell struct {
	stats        metrics.NetworkStats
	recoverySecs int
	replans      int
	adopted      int
	pushed       int
	violations   []string
}

// runAdaptiveCell composes the four-gateway, two-operator scenario: each
// operator learns on the full AS923 band, then plans with the channel
// universe partitioned four-per-gateway — so when gateway 0 goes down,
// the nodes planned onto its channels are stranded until either the
// outage lifts (static) or the control loop replans them onto the
// surviving gateway's channels (adaptive).
func runAdaptiveCell(seed int64, intensity float64, adapt bool) adaptCell {
	n := scenario.TwoOperators(seed, flatEnv(seed), 2, prof.adaptNodes)
	channels := region.AS923.AllChannels()
	n.LearningSweep(0, 40*des.Millisecond, channels, 2)

	plans := make([]*planner.Result, len(n.Operators))
	for i, op := range n.Operators {
		plans[i] = alphaWANPlan(op, channels, true, 4, seed+int64(i))
	}

	// Traffic starts on the next whole second, giving the plan's MAC
	// downlinks time to land.
	tStart := (n.Sim.Now()/des.Second + 2) * des.Second
	window := prof.adaptWindow
	inj, inv, err := scenario.WatchFaults(n, adaptPlan(tStart, window).Scale(intensity))
	if err != nil {
		panic(err)
	}
	inv.RecoveryFactor = 0.4

	var ctrls []*adaptive.Controller
	if adapt {
		// The bounded per-replan budget; the test profile shrinks it
		// alongside the offline solver.
		solver := scenario.ReplanSolver(seed)
		applySolverProfile(&solver.Population, &solver.Generations, &solver.Patience)
		ctrls, err = scenario.CloseLoop(n, plans, inj, inv, adaptive.Config{
			Start: tStart, Stop: tStart + window, Interval: max(window/30, des.Second),
			Channels: channels,
			Solver:   solver,
		})
		if err != nil {
			panic(err)
		}
	}

	// Per-second delivery histogram for the recovery metric, bucketed on
	// the DES clock relative to traffic start. Only the stranded cohort
	// counts: operator 0's nodes whose planned channel is operated by
	// gateway 0 alone. Under the static plan their deliveries collapse to
	// zero for the whole outage (no surviving gateway of their network
	// listens on their channel); the closed loop retunes them onto
	// covered channels. Network-wide throughput only dips ~25%, which the
	// recovery threshold could not see.
	affected := n.Operators[0].ID
	a0 := plans[0].Assignment
	gw0Only := map[int]bool{}
	for _, k := range a0.GWChannels[0] {
		gw0Only[k] = true
	}
	for _, k := range a0.GWChannels[1] {
		delete(gw0Only, k)
	}
	cohort := map[medium.NodeID]bool{}
	for i, dev := range plans[0].Devices {
		if gw0Only[a0.NodeChannel[i]] {
			if nd, ok := n.Operators[0].NodeByAddr(dev); ok {
				cohort[nd.ID] = true
			}
		}
	}
	windowSecs := int(window / des.Second)
	buckets := make([]int, windowSecs+2)
	n.Col.Outcomes.Subscribe(func(o metrics.Outcome) {
		if !o.Received || o.TX.Network != affected || !cohort[o.TX.Node] {
			return
		}
		b := int((n.Sim.Now() - tStart) / des.Second)
		if b >= 0 && b < len(buckets) {
			buckets[b]++
		}
	})

	n.Col.Reset()
	n.RunBackgroundTraffic(tStart, tStart+window, des.Second)

	cell := adaptCell{
		stats:        n.Col.Total(),
		violations:   inv.Finish(),
		recoverySecs: recoveryTime(buckets, windowSecs/3, windowSecs, intensity),
	}
	for _, ctrl := range ctrls {
		r, a, pu := ctrl.Replans()
		cell.replans += r
		cell.adopted += a
		cell.pushed += pu
	}
	return cell
}

// recoveryTime measures how long after the outage begins (bucket
// outIdx) the stranded cohort's delivery rate returns to 70% of its
// pre-outage per-second mean, using a 3-bucket sliding window to smooth
// Poisson noise. Returns 0 when no outage ran, and the remaining window
// as a cap when throughput never recovers.
func recoveryTime(buckets []int, outIdx, windowSecs int, intensity float64) int {
	if intensity <= 0 || outIdx <= 0 {
		return 0
	}
	pre := 0
	for b := 0; b < outIdx; b++ {
		pre += buckets[b]
	}
	if pre == 0 {
		// The cohort never delivered even before the outage: recovery is
		// unmeasurable, report the cap.
		return windowSecs - outIdx
	}
	const smooth = 5
	preMean := float64(pre) / float64(outIdx)
	need := 0.7 * smooth * preMean
	for b := outIdx; b+smooth <= windowSecs; b++ {
		sum := 0
		for k := 0; k < smooth; k++ {
			sum += buckets[b+k]
		}
		if float64(sum) >= need {
			return b - outIdx
		}
	}
	return windowSecs - outIdx
}

func runAdaptive(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Adaptive replanning — recovery vs fault intensity, static plan vs closed loop",
		"intensity", "mode", "sent", "received", "PRR", "recovery_s", "replans", "adopted", "pushed", "violations",
	)}
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	cells := runner.Map(2*len(intensities), func(i int) adaptCell {
		return runAdaptiveCell(seed, intensities[i/2], i%2 == 1)
	})
	var violations []string
	var staticHi, adaptHi []int // recovery times at intensity ≥ 0.5
	for i, c := range cells {
		intensity := intensities[i/2]
		mode := "static"
		if i%2 == 1 {
			mode = "adaptive"
		}
		res.Table.AddRow(intensity, mode, c.stats.Sent, c.stats.Received, c.stats.PRR(),
			c.recoverySecs, c.replans, c.adopted, c.pushed, len(c.violations))
		res.Devices += 2 * prof.adaptNodes
		violations = append(violations, c.violations...)
		if intensity >= 0.5 {
			if i%2 == 0 {
				staticHi = append(staticHi, c.recoverySecs)
			} else {
				adaptHi = append(adaptHi, c.recoverySecs)
			}
		}
	}
	sSum, aSum := 0, 0
	for i := range staticHi {
		sSum += staticHi[i]
		aSum += adaptHi[i]
	}
	res.Note("mean recovery at intensity ≥ 0.5: static %.1f s, adaptive %.1f s",
		float64(sSum)/float64(len(staticHi)), float64(aSum)/float64(len(adaptHi)))
	noteInvariants(res, "all conservation invariants held across every plan swap", violations)
	return res
}
