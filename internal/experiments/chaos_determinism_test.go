package experiments

import (
	"bytes"
	"testing"

	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/scenario"
)

// TestChaosTraceDeterminism is the chaos counterpart of
// TestTraceDeterminism: with the same seed AND the same fault plan, two
// runs must produce byte-identical JSONL traces, identical summary
// output, identical injector intervention counters, and identical
// collector totals. Any randomness in the injector that escapes its
// dedicated stream — or any plan application order depending on map
// iteration — shows up here as a diff.
func TestChaosTraceDeterminism(t *testing.T) {
	const seed = 7
	plan, err := faults.LoadPlan("../../examples/faultplans/demo.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, string, faults.Stats, int, int, int) {
		var trace, prog bytes.Buffer
		out := runDemo(t, scenario.Demo{Seed: seed, Faults: plan, Trace: &trace, Progress: &prog})
		if v := out.Invariants.Finish(); len(v) != 0 {
			t.Fatalf("invariant violations under demo plan: %v", v)
		}
		tot := out.Net.Col.Total()
		return trace.String(), prog.String(), out.Injector.Stats(), tot.Sent, tot.Received, out.Tracer.Records()
	}
	t1, p1, s1, sent1, recv1, rec1 := run()
	t2, p2, s2, sent2, recv2, rec2 := run()
	if t1 != t2 {
		t.Error("chaos trace diverges between identically-seeded runs")
	}
	if p1 != p2 {
		t.Error("chaos summary output diverges between identically-seeded runs")
	}
	if s1 != s2 {
		t.Errorf("injector stats diverge: %+v vs %+v", s1, s2)
	}
	if sent1 != sent2 || recv1 != recv2 || rec1 != rec2 {
		t.Errorf("collector totals diverge: sent %d/%d received %d/%d records %d/%d",
			sent1, sent2, recv1, recv2, rec1, rec2)
	}
	if s1.BackhaulDropped == 0 || s1.BackhaulDuplicated == 0 {
		t.Errorf("demo plan injected nothing: %+v", s1)
	}
}

// TestEmptyPlanMatchesPlainRun pins the no-op contract: attaching an
// empty fault plan must not perturb the run at all — the chaos path with
// zero episodes emits exactly the bytes of the plain trace path at the
// same seed, under every MAC strategy (`-faults` used to drop `-mac` on
// the floor). This is what keeps `-faults` safe to wire into the demo
// without forking the baseline outputs.
func TestEmptyPlanMatchesPlainRun(t *testing.T) {
	const seed = 3
	for _, kind := range mac.Kinds() {
		var plainTrace, plainProg bytes.Buffer
		runDemo(t, scenario.Demo{Seed: seed, MAC: kind, Trace: &plainTrace, Progress: &plainProg})

		var chaosTrace, chaosProg bytes.Buffer
		out := runDemo(t, scenario.Demo{Seed: seed, MAC: kind, Faults: &faults.Plan{}, Trace: &chaosTrace, Progress: &chaosProg})
		if v := out.Invariants.Finish(); len(v) != 0 {
			t.Fatalf("%v: invariant violations on an empty plan: %v", kind, v)
		}
		if s := out.Injector.Stats(); s != (faults.Stats{}) {
			t.Errorf("%v: empty plan intervened: %+v", kind, s)
		}

		if plainTrace.String() != chaosTrace.String() {
			t.Errorf("%v: empty-plan chaos trace diverges from the plain trace", kind)
		}
		if plainProg.String() != chaosProg.String() {
			t.Errorf("%v: empty-plan chaos summary diverges from the plain summary", kind)
		}
	}
}

// TestResilienceParallelMatchesSerial extends the runner determinism
// regression to the chaos sweep: fig-resilience must emit byte-identical
// tables and notes whether its intensity cells run on one worker or
// many, with the fault injector active in every cell.
func TestResilienceParallelMatchesSerial(t *testing.T) {
	withProfile(t, smallProfile())
	const seed = 7
	e, ok := Get("fig-resilience")
	if !ok {
		t.Fatal("fig-resilience not registered")
	}
	prevW := runner.SetMaxWorkers(1)
	serial := renderResult(e.Run(seed))
	runner.SetMaxWorkers(6)
	parallel := renderResult(e.Run(seed))
	runner.SetMaxWorkers(prevW)
	if serial != parallel {
		t.Errorf("fig-resilience: parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
