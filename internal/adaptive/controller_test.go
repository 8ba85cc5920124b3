package adaptive

import (
	"testing"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// plannedScenario builds a one-operator, two-gateway network, learns,
// and applies a channel plan with the universe partitioned four per
// gateway — the smallest shape where losing one gateway strands nodes a
// replan can rescue.
func plannedScenario(t *testing.T, seed int64) (*sim.Network, *sim.Operator, *planner.Result, []region.Channel) {
	t.Helper()
	n := sim.New(seed, phy.Urban(seed))
	channels := region.AS923.AllChannels()
	op := n.AddOperator()
	for j := 0; j < 2; j++ {
		cfg := baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]
		if _, err := op.AddGateway(radio.Models[2], phy.Pt(0, float64(j)*150), cfg); err != nil {
			t.Fatal(err)
		}
	}
	op.UniformNodes(16, 1500, 1500, channels, seed)
	n.LearningSweep(0, 40*des.Millisecond, channels, 2)
	in := planner.Input{
		Log:                op.Server.Log(),
		Channels:           channels,
		Gateways:           op.GatewayInfo(),
		Sync:               op.Sync,
		TrafficOverride:    1,
		NodeSide:           true,
		MarginDB:           2,
		FixedChannelsPerGW: 4,
		Solver:             testSolver(seed),
	}
	plan, err := planner.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.ApplyGatewayConfigs(plan.GWConfigs); err != nil {
		t.Fatal(err)
	}
	op.ApplyNodePlans(plan.NodePlans)
	return n, op, plan, channels
}

func testSolver(seed int64) evolve.Options {
	return evolve.Options{
		Population:  24,
		Generations: 30,
		TournamentK: 3,
		Elitism:     2,
		Patience:    10,
		Seed:        seed,
		ExactPolish: true,
	}
}

// attachPlan injects the episodes into n, validated.
func attachPlan(t *testing.T, n *sim.Network, eps ...faults.Episode) *faults.Injector {
	t.Helper()
	fp := &faults.Plan{Episodes: eps}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Attach(n, fp)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestControllerReplansThroughOutage is the control loop's end-to-end
// test: a gateway outage moves the injector's epoch, the next tick replans,
// the decision is adopted and pushed, and the loop goes quiet again
// between transitions (epoch gating) — then replans once more when the
// outage lifts.
func TestControllerReplansThroughOutage(t *testing.T) {
	n, op, plan, channels := plannedScenario(t, 3)
	t0 := (n.Sim.Now()/des.Second + 2) * des.Second
	gw0 := 0
	inj := attachPlan(t, n, faults.Episode{
		Kind: faults.KindGatewayOutage, Gateway: &gw0,
		StartS: float64(t0/des.Second) + 8, EndS: float64(t0/des.Second) + 20,
	})
	ctrl, err := Attach(n, op, plan, inj, Config{
		Start: t0, Stop: t0 + 30*des.Second, Interval: 2 * des.Second,
		Channels: channels,
		Solver:   testSolver(101),
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []PlanEvent
	ctrl.Events.Subscribe(func(e PlanEvent) { events = append(events, e) })

	n.RunBackgroundTraffic(t0, t0+30*des.Second, des.Second)

	replans, adopted, pushed := ctrl.Replans()
	// Two fault transitions (outage start, outage end) ⇒ exactly two
	// replans under epoch gating, even though ~15 ticks ran.
	if replans != 2 {
		t.Errorf("%d replans, want 2 (one per fault transition)", replans)
	}
	if adopted == 0 {
		t.Error("no replan was adopted through a full outage cycle")
	}
	if pushed == 0 {
		t.Error("adopted replans pushed no genes")
	}
	if len(events) != replans {
		t.Errorf("%d events for %d replans", len(events), replans)
	}
	for _, e := range events {
		if e.Adopted && e.Candidate.Total() > e.Incumbent.Total() {
			t.Errorf("adopted decision regresses objective: %+v", e)
		}
	}
	if ctrl.Incumbent() == nil {
		t.Fatal("controller lost its incumbent")
	}
	if err := ctrl.Incumbent().Validate(plan.Problem); err != nil {
		t.Errorf("live incumbent does not validate on the base problem: %v", err)
	}
}

// TestControllerNoFaultsNoReplans pins the quiet path: with an empty
// fault plan the epoch never moves, so every tick is a no-op — no solver
// runs, no commands are pushed, no events fire.
func TestControllerNoFaultsNoReplans(t *testing.T) {
	n, op, plan, channels := plannedScenario(t, 4)
	inj := attachPlan(t, n)
	t0 := (n.Sim.Now()/des.Second + 2) * des.Second
	ctrl, err := Attach(n, op, plan, inj, Config{
		Start: t0, Stop: t0 + 10*des.Second, Interval: des.Second,
		Channels: channels,
		Solver:   testSolver(55),
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	ctrl.Events.Subscribe(func(PlanEvent) { fired++ })
	n.RunBackgroundTraffic(t0, t0+10*des.Second, des.Second)
	if r, a, p := ctrl.Replans(); r != 0 || a != 0 || p != 0 || fired != 0 {
		t.Errorf("faultless controller acted: %d replans, %d adopted, %d pushed, %d events", r, a, p, fired)
	}
}

// TestAttachRejects pins the config guards.
func TestAttachRejects(t *testing.T) {
	n, op, plan, channels := plannedScenario(t, 5)
	inj := attachPlan(t, n)
	good := Config{Start: 0, Stop: des.Second, Interval: des.Second, Channels: channels, Solver: testSolver(1)}

	bad := good
	bad.Interval = 0
	if _, err := Attach(n, op, plan, inj, bad); err == nil {
		t.Error("Attach accepted a zero tick interval")
	}
	if _, err := Attach(n, op, &planner.Result{}, inj, good); err == nil {
		t.Error("Attach accepted a plan without problem/assignment")
	}
	stripped := *plan
	stripped.Devices = nil
	if _, err := Attach(n, op, &stripped, inj, good); err == nil {
		t.Error("Attach accepted a plan with no device mapping")
	}
}

// TestDriftedProblemCapsDecoders: under a decoder-degrade episode the
// drifted problem carries the injector's cap on the degraded gateway and
// the chipset pool on the other, and shares the base problem's nodes
// (nothing is down).
func TestDriftedProblemCapsDecoders(t *testing.T) {
	n, op, plan, channels := plannedScenario(t, 6)
	t0 := (n.Sim.Now()/des.Second + 2) * des.Second
	gw := op.Gateways[1].ID
	inj := attachPlan(t, n, faults.Episode{
		Kind: faults.KindDecoderDegrade, Gateway: &gw, Decoders: 3,
		StartS: float64(t0 / des.Second), EndS: float64(t0/des.Second) + 10,
	})
	ctrl, err := Attach(n, op, plan, inj, Config{
		Start: t0, Stop: t0 + des.Second, Interval: des.Second,
		Channels: channels, Solver: testSolver(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Sim.RunUntil(t0 + 5*des.Second)
	q := ctrl.driftedProblem()
	if got := q.Gateways[1].Decoders; got != 3 {
		t.Errorf("degraded gateway plans with %d decoders, want the cap 3", got)
	}
	if got, want := q.Gateways[0].Decoders, plan.Problem.Gateways[0].Decoders; got != want {
		t.Errorf("healthy gateway plans with %d decoders, want %d", got, want)
	}
	if &q.Nodes[0] != &plan.Problem.Nodes[0] {
		t.Error("no gateway is down, yet the drifted problem copied the nodes")
	}
}

// TestPushRetunesGateway: a diff holding a gateway gene retunes that
// gateway's radio, in place, to the assignment's channel set.
func TestPushRetunesGateway(t *testing.T) {
	n, op, plan, channels := plannedScenario(t, 7)
	// An empty tick schedule: the test calls push itself.
	ctrl, err := Attach(n, op, plan, attachPlan(t, n), Config{
		Interval: des.Second, Channels: channels, Solver: testSolver(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assignment.Clone()
	a.GWChannels[0] = a.GWChannels[1]
	ctrl.push(a, []cp.Gene{cp.GWGene(0)})
	got := op.Gateways[0].Config().Channels
	if len(got) != len(a.GWChannels[1]) {
		t.Fatalf("gateway 0 has %d channels, want %d", len(got), len(a.GWChannels[1]))
	}
	for i, k := range a.GWChannels[1] {
		if got[i] != channels[k] {
			t.Errorf("gateway 0 channel %d = %+v, want %+v", i, got[i], channels[k])
		}
	}
	if _, _, pushed := ctrl.Replans(); pushed != 1 {
		t.Errorf("%d genes pushed, want 1", pushed)
	}
}
