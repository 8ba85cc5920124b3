package experiments

import (
	"github.com/alphawan/alphawan/internal/alphawan/logparse"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
	"github.com/alphawan/alphawan/internal/traffic"
)

var fig06 = Experiment{
	ID:    "fig06",
	Title: "Standard ADR: cell shrinking and unbalanced data-rate usage",
	Paper: "ADR cuts user-gateway redundancy from ≈7 to ≈2 gateways per user but pushes >90% of users to DR5, starving slow rates.",
	Run:   runFig06,
}

func runFig06(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 6 — ADR cell size and data-rate distribution",
		"metric", "before ADR", "after ADR",
	)}
	// Mild urban propagation so every gateway hears the whole area at slow
	// rates (the paper's 7-gateways-per-user regime).
	env := phy.Urban(seed)
	env.Exponent = 3.0
	env.ShadowSigma = 4
	n := sim.New(seed, env)
	op := n.AddOperator()
	op.Server.ADREnabled = true
	cfgs := baseline.StandardConfigs(region.AS923, 9, op.Sync)
	for i := 0; i < 9; i++ {
		x := 300 + float64(i%3)*700.0
		y := 200 + float64(i/3)*600.0
		if _, err := op.AddGateway(cotsModel, phy.Pt(x, y), cfgs[i]); err != nil {
			panic(err)
		}
	}
	// Users start at the LoRaWAN default DR0 (full range, maximal decoder
	// burn) with full power.
	op.UniformNodes(60, 2100, 1600, region.AS923.AllChannels(), seed)
	for _, nd := range op.Nodes {
		nd.DR = lora.DR0
		nd.PowerDBm = 20
	}

	// Phase 1: one uplink per node (serialized) — the pre-ADR state.
	n.LearningPhase(0, 2*des.Second)
	before := logparse.Parse(op.Server.Log(), des.Minute)
	beforeGWs := before.MeanGatewaysPerDevice()
	op.Server.ClearLog()

	// Phase 2: periodic traffic long enough for ADR to converge (the
	// server reacts to every uplink).
	for _, nd := range op.Nodes {
		nd.DutyCycle = 0
		traffic.StartPoisson(n.Med, nd, n.Sim.Now(), n.Sim.Now()+30*des.Minute, 40*des.Second)
	}
	n.Sim.RunUntil(n.Sim.Now() + 31*des.Minute)

	// Phase 3: measure the post-ADR state from a fresh probe window.
	op.Server.ClearLog()
	n.LearningPhase(n.Sim.Now(), 2*des.Second)
	after := logparse.Parse(op.Server.Log(), des.Minute)
	afterGWs := after.MeanGatewaysPerDevice()

	drCount := [lora.NumDRs]int{}
	for _, nd := range op.Nodes {
		drCount[nd.DR]++
	}
	dr5Share := float64(drCount[lora.DR5]) / float64(len(op.Nodes))

	res.Table.AddRow("gateways per user", beforeGWs, afterGWs)
	for d := lora.DR0; d <= lora.DR5; d++ {
		res.Table.AddRow("users at "+d.String(), boolToCount(d == lora.DR0, len(op.Nodes)), drCount[d])
	}
	res.Note("ADR shrinks redundancy from %.1f to %.1f gateways per user (paper: 7 → 2)", beforeGWs, afterGWs)
	res.Note("%.0f%% of users end at DR5 (paper: >90%% local, 53.7%% TTN)", dr5Share*100)
	if afterGWs >= beforeGWs {
		res.Note("WARNING: ADR did not shrink cells")
	}
	if dr5Share < 0.5 {
		res.Note("WARNING: DR5 skew weaker than the paper's")
	}
	return res
}

func boolToCount(b bool, n int) int {
	if b {
		return n
	}
	return 0
}
