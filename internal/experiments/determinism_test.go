package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/scenario"
)

// withProfile installs the shrunken profile for the duration of a test
// and restores the registered full-scale shape afterwards.
func withProfile(t *testing.T, p profileT) {
	t.Helper()
	prev := prof
	prof = p
	t.Cleanup(func() { prof = prev })
}

// runDemo runs the built-in scenario, failing the test on a composition
// or tracer error.
func runDemo(t *testing.T, d scenario.Demo) *scenario.Outcome {
	t.Helper()
	out, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Tracer != nil {
		if err := out.Tracer.Err(); err != nil {
			t.Fatalf("tracer error: %v", err)
		}
	}
	return out
}

// renderResult flattens a Result to one comparable string: the table in
// CSV form plus every note, in order.
func renderResult(r *Result) string {
	var b strings.Builder
	b.WriteString(r.Table.CSV())
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTraceDeterminism is the event-order regression for the bus: with
// the same seed and the same subscriber set (the full sink stack on the
// built-in trace scenario), two runs must produce byte-identical JSONL
// traces and byte-identical summary output. Any nondeterminism in topic
// dispatch order — or any subscriber perturbing the DES schedule — shows
// up here as a byte diff. The scenario is the tracer's own shrunken
// two-operator profile, so the double run stays tier-1 fast.
func TestTraceDeterminism(t *testing.T) {
	const seed = 7
	run := func() (string, string) {
		var trace, prog bytes.Buffer
		out := runDemo(t, scenario.Demo{Seed: seed, Trace: &trace, Progress: &prog})
		if out.Tracer.Records() == 0 {
			t.Fatal("empty trace")
		}
		return trace.String(), prog.String()
	}
	t1, p1 := run()
	t2, p2 := run()
	if t1 != t2 {
		t.Error("trace output diverges between identically-seeded runs")
	}
	if p1 != p2 {
		t.Errorf("summary output diverges between identically-seeded runs:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
	}
}

// TestParallelMatchesSerial is the determinism regression for the cell
// runner: the registered multi-cell experiments must emit byte-identical
// tables and notes whether cells run on one worker or many, at the same
// seed. It covers fig04a (user-scale sweep), fig13 (strategy × scale
// grid), fig12c (the §5.1 testbed contention workload), fig17 (whose
// wall-clock latencies now live in the sidecar, so its table and notes
// are held to the same standard as everyone else's), fig-mac, the two
// sharded city-scale experiments (whose cell sweeps parallelize inside
// the SoA core) on the shrunken profile so the whole comparison stays
// tier-1 fast, and four sub-second sweeps at full scale: the
// co-located-network probes of fig12de, fig14 and fig15 and the GA
// seeding ablation.
func TestParallelMatchesSerial(t *testing.T) {
	withProfile(t, smallProfile())
	const seed = 7
	for _, id := range []string{"fig04a", "fig13", "fig12c", "fig17", "city-smoke", "city-1M", "fig-mac", "fig12de", "fig14", "fig15", "abl-seeding"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			prevW := runner.SetMaxWorkers(1)
			serial := renderResult(e.Run(seed))
			runner.SetMaxWorkers(6)
			parallel := renderResult(e.Run(seed))
			runner.SetMaxWorkers(prevW)
			if serial != parallel {
				t.Errorf("%s: parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}
