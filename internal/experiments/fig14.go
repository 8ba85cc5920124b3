package experiments

import (
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Partial adoption: 0–4 of 4 coexisting networks run AlphaWAN",
		Paper: "Adopting networks roughly double their capacity; legacy networks improve slightly as contention leaves their channels; full adoption lifts everyone.",
		Run:   runFig14,
	})
}

// runFig14 deploys four coexisting networks (3 GWs + 24 users each) and
// varies how many adopt AlphaWAN's Master-coordinated misaligned plans;
// the rest stay on standard homogeneous plans.
func runFig14(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 14 — per-network capacity vs number of AlphaWAN adopters (4 networks)",
		"#adopting", "net1", "net2", "net3", "net4", "mean legacy", "mean adopting",
	)}
	type cellOut struct {
		caps                  [4]int
		meanLegacy, meanAdopt float64
	}
	// Each adoption level is an independent 4-network deployment.
	cells := runner.Map(5, func(adopting int) cellOut {
		spec := master.FromBand(region.AS923)
		n := sim.New(seed, testbedEnv(seed))
		// Adopters register with a Master sized for the adopters; legacy
		// networks use the standard grid plan (shift 0).
		reg := master.NewRegistry(spec, max(adopting, 1))
		var out cellOut
		for k := 0; k < 4; k++ {
			op := n.AddOperator()
			adopts := k >= 4-adopting // the last `adopting` networks adopt
			var chans []region.Channel
			if adopts {
				alloc, err := reg.Register(opName(k))
				if err != nil {
					panic(err)
				}
				chans = alloc.Channels()
			} else {
				chans = region.AS923.AllChannels()
			}
			blocks := [][2]int{{0, 3}, {3, 3}, {6, 2}}
			for g := 0; g < 3; g++ {
				cfg := radio.Config{Sync: op.Sync}
				if adopts {
					b := blocks[g]
					cfg.Channels = append(cfg.Channels, chans[b[0]:b[0]+b[1]]...)
				} else {
					cfg.Channels = chans
				}
				if _, err := op.AddGateway(cotsModel, phy.Pt(float64(k)*10+float64(g)*3, float64(k)), cfg); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 24; i++ {
				ch := chans[i%8]
				dr := lora.DR((i/8*2 + k) % 6)
				ang := float64(i+24*k) / 96
				radius := 100 + float64((i*37+k*11)%250)
				op.AddNode(phy.Pt(radius*cosTau(ang), radius*sinTau(ang)), []region.Channel{ch}, dr)
			}
		}
		got := n.CapacityProbe(5 * des.Second)
		var legacySum, legacyN, adoptSum, adoptN float64
		for k := 0; k < 4; k++ {
			out.caps[k] = got[n.Operators[k].ID]
			if k >= 4-adopting {
				adoptSum += float64(out.caps[k])
				adoptN++
			} else {
				legacySum += float64(out.caps[k])
				legacyN++
			}
		}
		if legacyN > 0 {
			out.meanLegacy = legacySum / legacyN
		}
		if adoptN > 0 {
			out.meanAdopt = adoptSum / adoptN
		}
		return out
	})
	var meanNoAdopt, meanFull float64
	for adopting, c := range cells {
		if adopting == 0 {
			meanNoAdopt = c.meanLegacy
		}
		if adopting == 4 {
			meanFull = c.meanAdopt
		}
		res.Table.AddRow(adopting, c.caps[0], c.caps[1], c.caps[2], c.caps[3], c.meanLegacy, c.meanAdopt)
	}
	res.Note("mean per-network capacity grows from %.1f (no adoption) to %.1f (full adoption) — paper: ≈4 → ≈24 with progressive gains", meanNoAdopt, meanFull)
	if meanFull <= meanNoAdopt {
		res.Note("WARNING: adoption did not help")
	}
	return res
}

func opName(k int) string {
	return string(rune('A' + k))
}
