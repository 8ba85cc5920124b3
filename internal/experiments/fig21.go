package experiments

import (
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
	"github.com/alphawan/alphawan/internal/traffic"
)

var fig21 = Experiment{
	ID:    "fig21",
	Title: "Appendix D: 53-week user expansion with mid-life interventions",
	Paper: "AlphaWAN sustains >90% PRR through a 7k-user surge (wk13, +5 GWs), a spectrum extension (wk27), and a coexisting operator (wk43); standard LoRaWAN sinks below 50%.",
	Run:   runFig21,
}

// fig21Week measures one strategy's PRR in one week on a fresh deployment
// of that week's fleet and user count. Rebuilding per measured week keeps
// the run tractable while preserving the capacity balance that drives PRR.
func fig21Week(seed int64, week int, band region.Band, gws, users int, alphaWAN bool) float64 {
	n := sim.New(seed+int64(week), testbedEnv(seed))
	// Physical nodes emulate the user population (≤144 hardware nodes).
	const phys = 144
	op := cityOperator(n, band, gws, phys, seed)
	var op2 *sim.Operator
	if week >= 43 {
		// The coexisting operator: 5 gateways, 3,430 users, same spectrum.
		op2 = n.AddOperator()
		cfg2 := baseline.StandardConfigs(band, 5, op2.Sync)
		for i := 0; i < 5; i++ {
			pos := gwGridPositions(15)[i*3%15]
			pos.Y += 50
			if _, err := op2.AddGateway(cotsModel, pos, cfg2[i]); err != nil {
				panic(err)
			}
		}
		op2.UniformNodes(48, 2100, 1600, band.AllChannels(), seed+99)
		op2.AssignNodesToGatewayPlans()
	}

	if alphaWAN {
		n.LearningSweep(0, 200*des.Millisecond, band.AllChannels(), 2)
		planChans := band.AllChannels()
		if op2 != nil {
			// Spectrum-sharing response to the new operator: the Master
			// assigns this network a 100 kHz-shifted plan (20% overlap
			// with the legacy grid), so the newcomer's packets no longer
			// reach our decoders.
			planChans = master.PlanChannelsWithShift(master.FromBand(band), 100_000)
		}
		alphaWANLoadPlan(op, planChans, seed, float64(users)/phys*0.005)
	}

	// One representative traffic window for the week.
	n.Col.Reset()
	start := n.Sim.Now()
	window := 2 * des.Minute
	emulateUsers(n, op, users, 0.005, start, start+window)
	if op2 != nil {
		emulateUsers(n, op2, 3430, 0.005, start, start+window)
	}
	n.Sim.RunUntil(start + window + des.Minute)
	return n.Col.Network(op.ID).PRR()
}

func runFig21(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 21 — weekly PRR over 53 weeks of expansion",
		"week", "users", "GWs", "channels", "AlphaWAN PRR", "LoRaWAN PRR",
	)}
	timeline := traffic.AppendixDTimeline()
	fullBand := region.Band{
		Name: "expandable", Start: region.MHz(916.9), Spacing: 200_000,
		Channels: 32, BW: lora.BW125, DutyCycle: 0.01,
	}
	measuredWeeks := []int{1, 5, 9, 12, 13, 17, 21, 26, 27, 31, 37, 42, 43, 47, 53}
	isMeasured := map[int]bool{}
	for _, w := range measuredWeeks {
		isMeasured[w] = true
	}

	// Replay the timeline serially to snapshot the fleet state of every
	// measured week; each (week, strategy) measurement then runs as an
	// independent cell with a fresh deployment (fig21Week rebuilds from
	// the snapshot, so cells carry no cross-week state).
	type snap struct{ week, users, gws, chans int }
	var snaps []snap
	users, gws, chans := 0, 10, 24
	for _, ev := range timeline {
		users += ev.AddUsers
		gws += ev.AddGateways
		if ev.AddChannels > 0 {
			chans += ev.AddChannels
		}
		if isMeasured[ev.Week] {
			snaps = append(snaps, snap{ev.Week, users, gws, chans})
		}
	}
	prrs := runner.Map(len(snaps)*2, func(i int) float64 {
		s := snaps[i/2]
		return fig21Week(seed, s.week, fullBand.SubBand(0, s.chans), s.gws, s.users, i%2 == 0)
	})

	var awWorst, awLast, stdLast float64
	awWorst = 1
	for i, s := range snaps {
		awPRR, stdPRR := prrs[2*i], prrs[2*i+1]
		if awPRR < awWorst {
			awWorst = awPRR
		}
		awLast, stdLast = awPRR, stdPRR
		res.Table.AddRow(s.week, s.users, s.gws, s.chans, awPRR, stdPRR)
	}
	res.Note("AlphaWAN's worst weekly PRR is %.2f and finishes week 53 at %.2f with %d users (paper: >0.90 throughout)", awWorst, awLast, users)
	res.Note("standard LoRaWAN finishes at %.2f (paper: <0.50)", stdLast)
	if awLast <= stdLast {
		res.Note("WARNING: AlphaWAN did not outperform at the final scale")
	}
	return res
}
