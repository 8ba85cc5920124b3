package experiments

import (
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var fig15 = Experiment{
	ID:    "fig15",
	Title: "Fairness between coexisting networks under varying load (40% overlap plans)",
	Paper: "Both networks keep >90% service ratios until network 2 exceeds the 48-user spectrum capacity; then only network 2's ratio collapses while network 1 stays >80%.",
	Run:   runFig15,
}

// runFig15 deploys two Master-coordinated networks in 1.6 MHz: network 1
// holds 48 users (the spectrum's oracle), network 2 sweeps 16..80.
func runFig15(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 15 — service ratio per network vs network 2 load",
		"net2 users", "net1 service ratio", "net2 service ratio",
	)}
	sweep := []int{16, 32, 48, 64, 80}
	type cellOut struct{ sr1, sr2 float64 }
	// Each network-2 load level is an independent two-network deployment.
	cells := runner.Map(len(sweep), func(i int) cellOut {
		users2 := sweep[i]
		spec := master.FromBand(region.AS923)
		// 40% overlap ⇒ 75 kHz shift between the two plans.
		shift := region.Hz(75_000)
		n := sim.New(seed, testbedEnv(seed))
		counts := []int{48, users2}
		for k := 0; k < 2; k++ {
			op := n.AddOperator()
			chans := master.PlanChannelsWithShift(spec, region.Hz(int64(k)*int64(shift)))
			coexGateways(op, k, chans, true)
			// Users cycle distinct (channel, DR) pairs; beyond 48 users
			// the pairs repeat (channel contention, by design).
			for i := 0; i < counts[k]; i++ {
				ch := chans[i%8]
				dr := lora.DR(i / 8 % 6)
				ang := float64(i+48*k) / 128
				radius := 100 + float64((i*41+k*13)%250)
				op.AddNode(phy.Pt(radius*cosTau(ang), radius*sinTau(ang)), []region.Channel{ch}, dr)
			}
		}
		got := n.CapacityProbe(5 * des.Second)
		return cellOut{
			sr1: float64(got[n.Operators[0].ID]) / 48,
			sr2: float64(got[n.Operators[1].ID]) / float64(users2),
		}
	})
	var sr1At48, sr1At80, sr2At80 float64
	for i, users2 := range sweep {
		c := cells[i]
		if users2 == 48 {
			sr1At48 = c.sr1
		}
		if users2 == 80 {
			sr1At80, sr2At80 = c.sr1, c.sr2
		}
		res.Table.AddRow(users2, c.sr1, c.sr2)
	}
	res.Note("with both networks at 48 users, network 1 serves %.0f%% (paper: both >90%%)", sr1At48*100)
	res.Note("at 80 users in network 2: network 1 still serves %.0f%%, network 2 drops to %.0f%% (paper: >80%% vs collapse)", sr1At80*100, sr2At80*100)
	if sr1At80 < 0.8 {
		res.Note("WARNING: isolation failed — network 2's overload leaked into network 1")
	}
	return res
}
