package experiments

import (
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/scenario"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var figResilience = Experiment{
	ID:    "fig-resilience",
	Title: "Delivery ratio vs fault intensity (chaos sweep)",
	Paper: "Robustness extension: a multi-network deployment under injected gateway outages, decoder degradation, and backhaul chaos should degrade gracefully and uphold every conservation invariant at all intensities.",
	Run:   runResilience,
}

// resilPlan is the canonical chaos schedule of the sweep, positioned as
// fractions of the traffic window so the shrunken test profile exercises
// the same shape: a mid-run outage of gateway 0, a long decoder
// degradation on gateway 1, backhaul chaos over most of the run, and
// flaky downlink scheduling throughout.
func resilPlan(window des.Time) *faults.Plan {
	w := float64(window) / float64(des.Second)
	gw0, gw1 := 0, 1
	p := &faults.Plan{Episodes: []faults.Episode{
		{Kind: faults.KindGatewayOutage, Gateway: &gw0, StartS: w / 3, EndS: w/3 + w/9},
		{Kind: faults.KindDecoderDegrade, Gateway: &gw1, StartS: 2 * w / 9, EndS: 5 * w / 9, Decoders: 4},
		{Kind: faults.KindBackhaul, StartS: w / 9, EndS: 8 * w / 9,
			Drop: 0.15, Duplicate: 0.10, Reorder: 0.10, DelayMS: 30, JitterMS: 20},
		{Kind: faults.KindDownlink, StartS: 0, EndS: w, Fail: 0.20, DelayMS: 200, JitterMS: 100},
	}}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// resilCell is one intensity cell's outcome.
type resilCell struct {
	stats      metrics.NetworkStats
	inj        faults.Stats
	violations []string
}

// runResilienceCell composes the two-operator chaos scenario (the trace
// demo's shape: one 8-decoder gateway each, shared AS923 grid), attaches
// the canonical plan scaled to the intensity, and runs it under the
// invariant checker.
func runResilienceCell(seed int64, intensity float64) resilCell {
	n := scenario.TwoOperators(seed, phy.Urban(seed), 1, prof.resilNodes)
	for _, op := range n.Operators {
		// ADR keeps the downlink command path busy, so the downlink fault
		// episode has real traffic to fail and delay.
		op.Server.ADREnabled = true
	}
	inj, inv, err := scenario.WatchFaults(n, resilPlan(prof.resilWindow).Scale(intensity))
	if err != nil {
		panic(err)
	}
	// The sweep's shrunken cells leave few buckets around each episode;
	// a slightly laxer recovery bound keeps the check meaningful without
	// flagging bucket-boundary noise.
	inv.RecoveryFactor = 0.4
	n.RunBackgroundTraffic(0, prof.resilWindow, des.Second)
	return resilCell{stats: n.Col.Total(), inj: inj.Stats(), violations: inv.Finish()}
}

func runResilience(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Resilience — delivery ratio vs fault intensity",
		"intensity", "sent", "received", "PRR", "bh.drop", "bh.dup", "bh.reord", "cmd.drop", "violations",
	)}
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	cells := runner.Map(len(intensities), func(i int) resilCell {
		return runResilienceCell(seed, intensities[i])
	})
	var violations []string
	var basePRR, fullPRR float64
	for i, c := range cells {
		res.Table.AddRow(intensities[i], c.stats.Sent, c.stats.Received, c.stats.PRR(),
			c.inj.BackhaulDropped, c.inj.BackhaulDuplicated, c.inj.BackhaulReordered,
			c.inj.CommandsDropped, len(c.violations))
		violations = append(violations, c.violations...)
		switch intensities[i] {
		case 0:
			basePRR = c.stats.PRR()
		case 1:
			fullPRR = c.stats.PRR()
		}
	}
	res.Note("delivery ratio degrades %.1f%% → %.1f%% from zero to full fault intensity", 100*basePRR, 100*fullPRR)
	noteInvariants(res, "all conservation invariants held at every intensity", violations)
	return res
}

// noteInvariants closes a chaos sweep's notes: held when no cell broke a
// conservation invariant, otherwise one WARNING per violation in cell
// order.
func noteInvariants(res *Result, held string, violations []string) {
	if len(violations) == 0 {
		res.Notes = append(res.Notes, held)
	}
	for _, v := range violations {
		res.Note("WARNING: invariant violation: %s", v)
	}
}
