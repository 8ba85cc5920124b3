package experiments

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/tabulate"
)

var (
	fig12a = Experiment{
		ID:    "fig12a",
		Title: "More gateways, more gains: capacity vs gateway count (144 users, 4.8 MHz)",
		Paper: "Standard LoRaWAN caps at 48; AlphaWAN scales linearly with gateways and reaches the 144-user oracle at 9 gateways; Random CP and the no-Strategy-① variant land in between.",
		Run:   runFig12a,
	}
	fig12b = Experiment{
		ID:    "fig12b",
		Title: "Spectrum efficiency: capacity vs operating spectrum (15 gateways)",
		Paper: "Capacity scales with spectrum for every strategy; full AlphaWAN achieves ≈3.9× the per-MHz user capacity of standard LoRaWAN.",
		Run:   runFig12b,
	}
	fig12c = Experiment{
		ID:    "fig12c",
		Title: "Contention management: gateway-side only vs gateway+node cooperation",
		Paper: "Mean capacity grows 42 → 57 → 68 users from standard LoRaWAN to AlphaWAN without and with node-side cooperation.",
		Run:   runFig12c,
	}
	fig12de = Experiment{
		ID:    "fig12de",
		Title: "Spectrum sharing among 1–6 coexisting networks (3 GWs + 24 users each)",
		Paper: "Standard per-network capacity collapses as networks multiply; AlphaWAN sustains ≥20 users per network and improves per-MHz utilization by 158.9%–778.1%.",
		Run:   runFig12de,
	}
)

// fig12Arms are the strategy columns of Figures 12a and 12b: standard
// LoRaWAN, Random CP, AlphaWAN without Strategy ① (8 fixed channels per
// gateway) and full AlphaWAN.
var fig12Arms = []cityArm{{}, {randomCP: true}, {plan: true, nodeSide: true, fixedChannels: 8}, {plan: true, nodeSide: true}}

func runFig12a(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 12a — max concurrent users vs gateways",
		"#gateways", "oracle", "LoRaWAN (standard)", "Random CP", "AlphaWAN (no S1)", "AlphaWAN (full)",
	)}
	gws := []int{1, 3, 5, 7, 9, 11, 13, 15}
	na := len(fig12Arms)
	caps := runner.Map(len(gws)*na, func(i int) int {
		return cityProbe(seed, region.Testbed, gws[i/na], fig12Arms[i%na])
	})
	var fullAt9, fullAt15, stdMax int
	for i, g := range gws {
		std, rnd, noS1, full := caps[i*na], caps[i*na+1], caps[i*na+2], caps[i*na+3]
		stdMax = max(stdMax, std)
		if g == 9 {
			fullAt9 = full
		}
		if g == 15 {
			fullAt15 = full
		}
		res.Table.AddRow(g, 144, std, rnd, noS1, full)
	}
	res.Note("standard LoRaWAN caps at %d users regardless of gateways (paper: 48)", stdMax)
	res.Note("full AlphaWAN reaches %d/144 at 9 gateways and %d/144 at 15 (paper: oracle at 9; our residual gap is imperfect-SF-orthogonality interference)", fullAt9, fullAt15)
	res.Note("the fixed-8-channel variant shows little gain under this aligned-end probe: with every channel carrying all six data rates, an 8-channel gateway's pool always fills with the slowest-locking packets first (the paper's +143%% for this variant relies on link diversity the controlled probe removes)")
	return res
}

// spectrumBand returns a band of the given channel count on the testbed
// grid (1.6 MHz per 8 channels).
func spectrumBand(channels int) region.Band {
	return region.Band{
		Name:  fmt.Sprintf("S%d", channels),
		Start: region.MHz(916.9), Spacing: 200_000,
		Channels: channels, BW: lora.BW125, DutyCycle: 0.01,
	}
}

func runFig12b(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 12b — capacity and per-MHz efficiency vs spectrum (15 GWs)",
		"spectrum (MHz)", "oracle", "LoRaWAN", "Random CP", "AlphaWAN (no S1)", "AlphaWAN (full)", "LoRaWAN /MHz", "AlphaWAN /MHz",
	)}
	sweep := []int{8, 16, 24, 32}
	na := len(fig12Arms)
	caps := runner.Map(len(sweep)*na, func(i int) int {
		return cityProbe(seed, spectrumBand(sweep[i/na]), 15, fig12Arms[i%na])
	})
	var firstRatio, lastRatio float64
	for i, chs := range sweep {
		std, rnd, noS1, full := caps[i*na], caps[i*na+1], caps[i*na+2], caps[i*na+3]
		mhz := float64(chs) * 0.2
		users := spectrumBand(chs).TheoreticalCapacity()
		stdMHz := float64(std) / mhz
		fullMHz := float64(full) / mhz
		if chs == 8 {
			firstRatio = fullMHz / stdMHz
		}
		if chs == 32 {
			lastRatio = fullMHz / stdMHz
		}
		res.Table.AddRow(mhz, users, std, rnd, noS1, full, stdMHz, fullMHz)
	}
	res.Note("full AlphaWAN per-MHz efficiency is %.1fx–%.1fx standard LoRaWAN's (paper: ≈3.9x / +292.2%%)", min(firstRatio, lastRatio), max(firstRatio, lastRatio))
	return res
}

func runFig12c(seed int64) *Result {
	band, gws, seeds := prof.fig12cBand, prof.fig12cGWs, prof.fig12cSeeds
	res := &Result{Table: tabulate.New(
		fmt.Sprintf("Figure 12c — contention management (%d users, %d GWs, %d seeds)",
			band.TheoreticalCapacity(), gws, seeds),
		"strategy", "mean capacity", "min", "max",
	)}
	// The §5.1.1 testbed deployment (distinct, link-feasible settings),
	// across independent shadowing seeds. Every (variant, seed) pair is
	// one independent capacity probe — fan them across the pool.
	variants := []struct {
		name string
		arm  cityArm
	}{
		{"LoRaWAN (standard)", cityArm{}},
		{"AlphaWAN (w/o node side)", cityArm{plan: true}},
		{"AlphaWAN (full)", cityArm{plan: true, nodeSide: true}},
	}
	caps := runner.Map(len(variants)*seeds, func(i int) int {
		return cityProbe(seed+int64(i%seeds), band, gws, variants[i/seeds].arm)
	})
	var means []float64
	for vi, v := range variants {
		sum, lo, hi := 0, 1<<30, 0
		for _, c := range caps[vi*seeds : (vi+1)*seeds] {
			sum += c
			lo, hi = min(lo, c), max(hi, c)
		}
		mean := float64(sum) / float64(seeds)
		means = append(means, mean)
		res.Table.AddRow(v.name, mean, lo, hi)
	}
	res.Note("mean capacity %.0f → %.0f → %.0f (paper: 42 → 57 → 68)", means[0], means[1], means[2])
	if !(means[2] > means[1] && means[1] > means[0]) {
		res.Note("WARNING: contention-management ordering violated")
	}
	return res
}

// misaligned plans network k on a Master-assigned shift for the given
// overlap, split across its gateways; overlap 0 is the standard
// homogeneous plan on every gateway.
func misaligned(overlap float64) func(k int) ([]region.Channel, bool) {
	return func(k int) ([]region.Channel, bool) {
		if overlap <= 0 {
			return region.AS923.AllChannels(), false
		}
		shiftUnit := region.Hz((1 - overlap) * float64(lora.BW125))
		return master.PlanChannelsWithShift(master.FromBand(region.AS923), region.Hz(int64(k)*int64(shiftUnit))%200_000), true
	}
}

func runFig12de(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 12d/e — spectrum sharing across coexisting networks (1.6 MHz)",
		"#networks", "std per-net", "AW20% per-net", "AW40% per-net", "AW60% per-net", "std /MHz", "AW40% /MHz",
	)}
	overlaps := []float64{0, 0.2, 0.4, 0.6}
	// One cell per (network count, overlap) pair: 24 independent probes.
	cells := runner.Map(6*len(overlaps), func(i int) float64 {
		caps := coexNetwork(seed, i/len(overlaps)+1, misaligned(overlaps[i%len(overlaps)]))
		t := 0
		for _, c := range caps {
			t += c
		}
		return float64(t) / float64(len(caps))
	})
	var gainAt1, gainAt6 float64
	for nets := 1; nets <= 6; nets++ {
		row := cells[(nets-1)*len(overlaps) : nets*len(overlaps)]
		std, aw20, aw40, aw60 := row[0], row[1], row[2], row[3]
		stdMHz := std * float64(nets) / 1.6
		awMHz := aw40 * float64(nets) / 1.6
		if nets == 1 {
			gainAt1 = awMHz / stdMHz
		}
		if nets == 6 {
			gainAt6 = awMHz / stdMHz
		}
		res.Table.AddRow(nets, std, aw20, aw40, aw60, stdMHz, awMHz)
	}
	res.Note("per-MHz utilization gain %.0f%% at 1 network → %.0f%% at 6 (paper: 158.9%% → 778.1%%)",
		(gainAt1-1)*100, (gainAt6-1)*100)
	return res
}
