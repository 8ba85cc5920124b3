// Package scenario composes the paper's central world — two operators
// sharing one band and burning each other's decoders (§3.1) — and the
// overlays the experiments and the CLI put on it: a MAC strategy, an
// offline channel plan, a fault plan under the invariant checker, and the
// closed replanning loop. Each of those decisions lives here once;
// Demo (demo.go) is the runnable value `alphawan-sim` drives.
package scenario

import (
	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// areaM is the side of the square the two operators' nodes are spread over.
const areaM = 2500

// TwoOperators composes two coexisting operators on the full AS923 grid.
// Each has gwsPerOp RAK7246G gateways (an SX1308 with only 8 decoders, so
// decoder contention from foreign decodes shows alongside channel
// contention) on the standard plan — operator i's gateway j at
// (150i, 150j) — and nodesPerOp nodes uniform over a 2.5 km square.
func TwoOperators(seed int64, env phy.Environment, gwsPerOp, nodesPerOp int) *sim.Network {
	n := sim.New(seed, env)
	for i := 0; i < 2; i++ {
		op := n.AddOperator()
		for j := 0; j < gwsPerOp; j++ {
			cfg := baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]
			pos := phy.Pt(float64(i)*150, float64(j)*150)
			if _, err := op.AddGateway(radio.Models[2], pos, cfg); err != nil {
				panic(err)
			}
		}
		op.UniformNodes(nodesPerOp, areaM, areaM, region.AS923.AllChannels(), seed+int64(i))
	}
	return n
}

// InstallMAC applies a MAC strategy to op's nodes, or to every
// operator's when op is nil: one slot grid shared by all of them
// (slotted ALOHA after Polonelli et al. aligns coexisting devices to the
// same time grid), or the CurvingLoRa capture rule on the shared medium.
// KindPure installs nothing, keeping the run byte-identical to one
// without the call.
func InstallMAC(n *sim.Network, op *sim.Operator, seed int64, kind mac.Kind) {
	ops := n.Operators
	if op != nil {
		ops = []*sim.Operator{op}
	}
	switch kind {
	case mac.KindSlotted:
		phyLen := 10 + 13
		if len(ops) > 0 && len(ops[0].Nodes) > 0 {
			phyLen = ops[0].Nodes[0].PayloadLen + 13
		}
		grid := mac.NewSlotGrid(seed, phyLen)
		for _, op := range ops {
			for _, nd := range op.Nodes {
				nd.Slots = grid
			}
		}
	case mac.KindCapture:
		n.Med.Capture = mac.NewCurving()
	}
}

// PlanAndApply runs the AlphaWAN planner for op on what its network
// server has logged (run a learning phase first) and applies the result:
// gateway configs always, node plans when in.NodeSide. The caller's in
// carries the decisions that vary — channel universe, traffic, margins,
// solver budget; Log, Gateways and Sync are taken from op.
func PlanAndApply(op *sim.Operator, in planner.Input) (*planner.Result, error) {
	in.Log = op.Server.Log()
	in.Gateways = op.GatewayInfo()
	in.Sync = op.Sync
	res, err := planner.Plan(in)
	if err != nil {
		return nil, err
	}
	if err := op.ApplyGatewayConfigs(res.GWConfigs); err != nil {
		return nil, err
	}
	if in.NodeSide {
		op.ApplyNodePlans(res.NodePlans)
	}
	return res, nil
}

// WatchFaults injects the fault plan into a composed scenario and puts
// the run under the invariant checker, episode windows included. Call
// before the run starts; call Finish on the checker afterwards for the
// verdict. An empty plan perturbs nothing.
func WatchFaults(n *sim.Network, plan *faults.Plan) (*faults.Injector, *faults.Invariants, error) {
	inj, err := faults.Attach(n, plan)
	if err != nil {
		return nil, nil, err
	}
	inv := faults.Watch(n)
	inv.WatchInjector(inj)
	return inj, inv, nil
}

// ReplanSolver is the bounded per-replan GA budget: a fraction of the
// offline planner's, warm-started from the incumbent, with the exact
// polish pass on so adopted diffs stay locally tight.
func ReplanSolver(seed int64) evolve.Options {
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

// CloseLoop attaches one replanning controller per operator, all reading
// the injector's fault state, and reports every adopted plan swap to the
// invariant checker. plans aligns with n.Operators. cfg.Solver.Seed is
// the run's seed; each operator's controller gets its own stream derived
// from it.
func CloseLoop(n *sim.Network, plans []*planner.Result, inj *faults.Injector, inv *faults.Invariants, cfg adaptive.Config) ([]*adaptive.Controller, error) {
	seed := cfg.Solver.Seed
	ctrls := make([]*adaptive.Controller, len(n.Operators))
	for i, op := range n.Operators {
		cfg.Solver.Seed = seed + 7919*int64(i+1)
		ctrl, err := adaptive.Attach(n, op, plans[i], inj, cfg)
		if err != nil {
			return nil, err
		}
		ctrl.Events.Subscribe(func(e adaptive.PlanEvent) {
			if e.Adopted && e.Changed > 0 {
				inv.NotePlanSwap(e.At)
			}
		})
		ctrls[i] = ctrl
	}
	return ctrls, nil
}
