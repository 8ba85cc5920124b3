package experiments

import (
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var fig14 = Experiment{
	ID:    "fig14",
	Title: "Partial adoption: 0–4 of 4 coexisting networks run AlphaWAN",
	Paper: "Adopting networks roughly double their capacity; legacy networks improve slightly as contention leaves their channels; full adoption lifts everyone.",
	Run:   runFig14,
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
		// Adopters register with a Master sized for the adopters and split
		// its misaligned plan across their gateways; legacy networks keep
		// the standard grid plan (shift 0) on every gateway.
		reg := master.NewRegistry(master.FromBand(region.AS923), max(adopting, 1))
		caps := coexNetwork(seed, 4, func(k int) ([]region.Channel, bool) {
			if k < 4-adopting { // legacy: only the last `adopting` networks adopt
				return region.AS923.AllChannels(), false
			}
			alloc, err := reg.Register(opName(k))
			if err != nil {
				panic(err)
			}
			return alloc.Channels(), true
		})
		var out cellOut
		var legacySum, legacyN, adoptSum, adoptN float64
		for k, c := range caps {
			out.caps[k] = c
			if k >= 4-adopting {
				adoptSum += float64(c)
				adoptN++
			} else {
				legacySum += float64(c)
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
