package sinks

import (
	"io"

	"github.com/alphawan/alphawan/internal/adaptive"
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

// Adaptive demo shape: the trace demo's two coexisting operators, but
// with two gateways each and an AlphaWAN channel plan partitioning the
// band four channels per gateway — the smallest topology where a
// gateway outage strands planned nodes and a replan can rescue them.
const (
	adaptiveDemoNodesPerOp = 30
	adaptiveDemoWindow     = 60 * des.Second
)

// RunAdaptiveDemo composes and runs the closed-loop replanning scenario
// behind `alphawan-sim -faults -adaptive`: each operator learns on the
// full AS923 band, plans, and then runs Poisson traffic while the fault
// plan injects chaos and a per-operator control loop replans from live
// telemetry on the given tick interval. Episode times in the plan are
// interpreted relative to traffic start (the learning and planning
// phases consume sim time first, so absolute times would land before
// any traffic exists). Returns the finished network, the injector, the
// invariant checker (plan-swap tracking included — call Finish for the
// verdict), and the controllers for their replan counters.
func RunAdaptiveDemo(seed int64, plan *faults.Plan, interval des.Time, progress io.Writer) (*sim.Network, *faults.Injector, *faults.Invariants, []*adaptive.Controller) {
	n := sim.New(seed, phy.Urban(seed))
	channels := region.AS923.AllChannels()
	for i := 0; i < 2; i++ {
		op := n.AddOperator()
		for j := 0; j < 2; j++ {
			cfg := baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]
			pos := phy.Pt(float64(i)*150, float64(j)*150)
			if _, err := op.AddGateway(radio.Models[2], pos, cfg); err != nil {
				panic(err)
			}
		}
		op.UniformNodes(adaptiveDemoNodesPerOp, demoAreaM, demoAreaM, channels, seed+int64(i))
	}
	n.LearningSweep(0, 40*des.Millisecond, channels, 2)

	plans := make([]*planner.Result, len(n.Operators))
	for i, op := range n.Operators {
		in := planner.Input{
			Log:                op.Server.Log(),
			Channels:           channels,
			Gateways:           op.GatewayInfo(),
			Sync:               op.Sync,
			TrafficOverride:    1,
			NodeSide:           true,
			MarginDB:           2,
			FixedChannelsPerGW: 4,
			Solver:             adaptiveDemoSolver(seed + int64(i)),
		}
		res, err := planner.Plan(in)
		if err != nil {
			panic(err)
		}
		if err := op.ApplyGatewayConfigs(res.GWConfigs); err != nil {
			panic(err)
		}
		op.ApplyNodePlans(res.NodePlans)
		plans[i] = res
	}

	tStart := (n.Sim.Now()/des.Second + 2) * des.Second
	shifted := &faults.Plan{Episodes: append([]faults.Episode(nil), plan.Episodes...)}
	t0 := float64(tStart) / float64(des.Second)
	for i := range shifted.Episodes {
		shifted.Episodes[i].StartS += t0
		shifted.Episodes[i].EndS += t0
	}
	inj, err := faults.Attach(n, shifted)
	if err != nil {
		panic(err)
	}
	inv := faults.Watch(n)
	inv.WatchInjector(inj)
	view := new(adaptive.View)
	view.WatchFaults(inj)

	ctrls := make([]*adaptive.Controller, len(n.Operators))
	for i, op := range n.Operators {
		ctrl, err := adaptive.Attach(n, op, plans[i], view, adaptive.Config{
			Start: tStart, Stop: tStart + adaptiveDemoWindow, Interval: interval,
			Channels: channels,
			Solver:   adaptiveDemoSolver(seed + 7919*int64(i+1)),
		})
		if err != nil {
			panic(err)
		}
		ctrl.Events.Subscribe(func(e adaptive.PlanEvent) {
			if e.Adopted && e.Changed > 0 {
				inv.NotePlanSwap(e.At)
			}
		})
		ctrls[i] = ctrl
	}

	var sm *Summary
	if progress != nil {
		sm = AttachSummary(progress, n.Sim, n.Col, 5*des.Second)
	}
	n.Col.Reset()
	n.RunBackgroundTraffic(tStart, tStart+adaptiveDemoWindow, des.Second)
	if sm != nil {
		sm.Flush()
	}
	return n, inj, inv, ctrls
}

// adaptiveDemoSolver is the demo's bounded GA budget, shared by the
// offline plan and each online replan.
func adaptiveDemoSolver(seed int64) evolve.Options {
	return evolve.Options{
		Population:   48,
		Generations:  80,
		MutationRate: 0.15,
		TournamentK:  3,
		Elitism:      4,
		Patience:     20,
		Seed:         seed,
		Parallel:     true,
		ExactPolish:  true,
	}
}
