package scenario

import (
	"bytes"
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
)

// examplePlan loads one of the CLI's worked examples: demo.json (a
// gateway outage, a decoder degrade, a lossy backhaul and flaky
// downlinks) or adaptive.json (an outage of gateway 0 and a decoder
// degrade on gateway 3, relative to traffic start).
func examplePlan(t *testing.T, name string) *faults.Plan {
	t.Helper()
	p, err := faults.LoadPlan("../../examples/faultplans/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDemoFieldsAreOrthogonal pins what `alphawan-sim -faults -adaptive
// -trace -mac slotted` used to drop on the floor: the closed-loop
// topology takes a tracer and a MAC strategy like the plain one does, the
// trace is byte-identical across two runs at one seed, and the MAC
// actually shapes it.
func TestDemoFieldsAreOrthogonal(t *testing.T) {
	run := func(kind mac.Kind) (string, string) {
		var trace, prog bytes.Buffer
		out, err := Demo{
			Seed: 1, MAC: kind, Faults: examplePlan(t, "adaptive.json"), ReplanInterval: 3 * des.Second,
			Trace: &trace, Progress: &prog,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Tracer.Err(); err != nil {
			t.Fatal(err)
		}
		if out.Tracer.Records() == 0 {
			t.Fatal("empty trace")
		}
		if len(out.Controllers) != 2 {
			t.Fatalf("%d controllers, want one per operator", len(out.Controllers))
		}
		if r, _, _ := out.Controllers[0].Replans(); r == 0 {
			t.Error("operator 0 never replanned through its gateway's outage")
		}
		if v := out.Invariants.Finish(); len(v) != 0 {
			t.Errorf("invariant violations: %v", v)
		}
		return trace.String(), prog.String()
	}
	t1, p1 := run(mac.KindSlotted)
	t2, p2 := run(mac.KindSlotted)
	if t1 != t2 {
		t.Error("closed-loop trace diverges between identically-seeded runs")
	}
	if p1 != p2 {
		t.Error("closed-loop summary diverges between identically-seeded runs")
	}
	if pure, _ := run(mac.KindPure); pure == t1 {
		t.Error("slotted and pure closed-loop traces are identical: the MAC was not installed")
	}
}

// TestDemoNilWhereNotAskedFor: a plain run carries no fault or control
// machinery, and a chaos run no controllers.
func TestDemoNilWhereNotAskedFor(t *testing.T) {
	out, err := Demo{Seed: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Net == nil || out.Tracer != nil || out.Injector != nil || out.Invariants != nil || out.Controllers != nil {
		t.Errorf("plain run outcome: %+v", out)
	}
	out, err = Demo{Seed: 1, Faults: examplePlan(t, "demo.json")}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Injector == nil || out.Invariants == nil || out.Controllers != nil || out.Tracer != nil {
		t.Errorf("chaos run outcome: %+v", out)
	}
}

// TestDemoRejects: what a caller (or a plan file) can get wrong comes
// back as an error, not a panic.
func TestDemoRejects(t *testing.T) {
	if _, err := (Demo{Seed: 1, ReplanInterval: des.Second}).Run(); err == nil {
		t.Error("replanning loop without a fault plan accepted")
	}
	gw9 := 9
	bad := &faults.Plan{Episodes: []faults.Episode{
		{Kind: faults.KindGatewayOutage, Gateway: &gw9, StartS: 1, EndS: 2},
	}}
	if _, err := (Demo{Seed: 1, Faults: bad}).Run(); err == nil {
		t.Error("plan targeting a gateway the scenario does not have accepted")
	}
}
