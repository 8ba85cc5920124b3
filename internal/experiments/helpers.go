package experiments

import (
	"math"

	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/scenario"
	"github.com/alphawan/alphawan/internal/sim"
)

// flatEnv is the controlled-probe environment: urban path loss without
// shadowing, so capacity experiments measure resource limits rather than
// fading luck.
func flatEnv(seed int64) phy.Environment {
	e := phy.Urban(seed)
	e.ShadowSigma = 0
	return e
}

// cotsModel is the default gateway (RAK7268CV2 / SX1302, 16 decoders).
var cotsModel = radio.Models[3]

// ringNodes deploys count nodes for the operator on rings centered at
// (cx, cy), cycling (channel, DR) pairs so that up to channels×6 nodes
// have unique settings. When count exceeds the number of unique pairs,
// later layers reuse settings from a much closer ring, so the capture
// effect (≥6 dB) resolves the resulting collisions deterministically —
// matching the paper's controlled concurrency probes beyond the oracle.
func ringNodes(op *sim.Operator, count int, cx, cy, r float64, channels []region.Channel) {
	pairs := len(channels) * lora.NumDRs
	for id := 0; id < count; id++ {
		layer := id / pairs
		radius := r / (1 + 1.5*float64(layer))
		ch := channels[id/lora.NumDRs%len(channels)]
		dr := lora.DR(id % lora.NumDRs)
		ang := 2 * math.Pi * float64(id%pairs) / float64(min(count, pairs))
		pos := phy.Pt(cx+radius*math.Cos(ang), cy+radius*math.Sin(ang))
		op.AddNode(pos, []region.Channel{ch}, dr)
	}
}

// clusterGateways deploys n gateways for the operator in a tight cluster
// around (cx, cy) with the given configs.
func clusterGateways(op *sim.Operator, n int, cx, cy float64, cfgs []radio.Config) error {
	for i := 0; i < n; i++ {
		if _, err := op.AddGateway(cotsModel, phy.Pt(cx+float64(i)*5, cy), cfgs[i]); err != nil {
			return err
		}
	}
	return nil
}

// probeNetwork builds a single-operator network with n gateways (standard
// configs on the band) and users nodes on a ring, ready for a capacity
// probe.
func probeNetwork(seed int64, band region.Band, gws, users int) (*sim.Network, *sim.Operator) {
	n := sim.New(seed, flatEnv(seed))
	op := n.AddOperator()
	cfgs := baseline.StandardConfigs(band, gws, op.Sync)
	if err := clusterGateways(op, gws, 0, 0, cfgs); err != nil {
		panic(err)
	}
	ringNodes(op, users, float64(gws-1)*2.5, 0, 150, band.AllChannels())
	return n, op
}

// offlineSolver is the offline planner's GA budget (the test profile
// shrinks it).
func offlineSolver(seed int64, elitism int) evolve.Options {
	s := evolve.DefaultOptions(seed)
	s.Population, s.Generations, s.Patience, s.Elitism = 96, 300, 60, elitism
	applySolverProfile(&s.Population, &s.Generations, &s.Patience)
	return s
}

// alphaWANPlan runs the full planning loop for a capacity probe (every
// user concurrent) on a network that already has logs (run LearningPhase
// first): it returns the plan and applies it.
func alphaWANPlan(op *sim.Operator, channels []region.Channel, nodeSide bool, fixedChannels int, seed int64) (*planner.Result, error) {
	return scenario.PlanAndApply(op, planner.Input{
		Channels:        channels,
		TrafficOverride: 1,
		NodeSide:        nodeSide,
		// 2 dB headroom over the logged SNRs absorbs the cross-SF
		// interference a fully loaded probe adds.
		MarginDB:           2,
		FixedChannelsPerGW: fixedChannels,
		Solver:             offlineSolver(seed, 6),
	})
}

// alphaWANLoadPlan plans for duty-cycled load — perNode is the expected
// concurrent packets each physical node contributes at the target
// emulated scale — with transmit power control, and applies the result.
func alphaWANLoadPlan(op *sim.Operator, channels []region.Channel, seed int64, perNode float64) error {
	if perNode <= 0 {
		perNode = 0.01
	}
	_, err := scenario.PlanAndApply(op, planner.Input{
		Channels:        channels,
		TrafficOverride: min(perNode, 1),
		NodeSide:        true,
		MarginDB:        2,
		TPC:             true,
		Solver:          offlineSolver(seed, 4),
	})
	return err
}

// learnAndProbe runs a learning phase and then a capacity probe, returning
// the operator's received count.
func learnAndProbe(n *sim.Network, op *sim.Operator) int {
	n.LearningPhase(n.Sim.Now(), des.Second)
	got := n.CapacityProbe(n.Sim.Now() + 5*des.Second)
	return got[op.ID]
}
