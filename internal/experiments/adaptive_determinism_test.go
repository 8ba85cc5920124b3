package experiments

import (
	"testing"

	"github.com/alphawan/alphawan/internal/runner"
)

// TestAdaptiveDeterminism pins the closed-loop replanning sweep the same
// way the chaos sweep is pinned: fig-adaptive at a fixed seed emits
// byte-identical tables and notes across repeated runs and across the
// serial and parallel runner paths. The replanning controller solves GA
// instances mid-run, so this is also the regression that its solver
// seeds, its epoch gating, and its push order are all on the DES clock
// and nothing else.
func TestAdaptiveDeterminism(t *testing.T) {
	withProfile(t, smallProfile())
	const seed = 7
	e, ok := Get("fig-adaptive")
	if !ok {
		t.Fatal("fig-adaptive not registered")
	}
	prevW := runner.SetMaxWorkers(1)
	serial := renderResult(e.Run(seed))
	serial2 := renderResult(e.Run(seed))
	runner.SetMaxWorkers(6)
	parallel := renderResult(e.Run(seed))
	runner.SetMaxWorkers(prevW)
	if serial != serial2 {
		t.Error("fig-adaptive diverges between identically-seeded runs")
	}
	if serial != parallel {
		t.Errorf("fig-adaptive: parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestAdaptiveEmptyPlanIsNoOp pins the control loop's no-op contract:
// with the fault plan scaled to zero (no episodes), a run with the
// controllers and their tick schedule attached must be
// byte-identical to the plain static run — same delivery totals, same
// per-cause losses, zero replans. The epoch gate is what makes this
// hold: no fault transitions, no epoch movement, no solver call, no RNG
// draw, no command push.
func TestAdaptiveEmptyPlanIsNoOp(t *testing.T) {
	withProfile(t, smallProfile())
	const seed = 11
	static := runAdaptiveCell(seed, 0, false)
	adaptive := runAdaptiveCell(seed, 0, true)
	if adaptive.replans != 0 || adaptive.adopted != 0 || adaptive.pushed != 0 {
		t.Errorf("control loop acted on an empty fault plan: %d replans, %d adopted, %d pushed",
			adaptive.replans, adaptive.adopted, adaptive.pushed)
	}
	if static.stats != adaptive.stats {
		t.Errorf("empty-plan adaptive run diverges from static run:\nstatic   %+v\nadaptive %+v",
			static.stats, adaptive.stats)
	}
	if static.recoverySecs != adaptive.recoverySecs {
		t.Errorf("recovery metric diverges on identical runs: %d vs %d",
			static.recoverySecs, adaptive.recoverySecs)
	}
	if len(static.violations) != 0 || len(adaptive.violations) != 0 {
		t.Errorf("faultless runs reported violations: %v / %v",
			static.violations, adaptive.violations)
	}
}
