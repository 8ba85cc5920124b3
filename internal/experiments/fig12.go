package experiments

import (
	"fmt"
	"math"

	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/baseline"
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
		ID:    "fig12a",
		Title: "More gateways, more gains: capacity vs gateway count (144 users, 4.8 MHz)",
		Paper: "Standard LoRaWAN caps at 48; AlphaWAN scales linearly with gateways and reaches the 144-user oracle at 9 gateways; Random CP and the no-Strategy-① variant land in between.",
		Run:   runFig12a,
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "Spectrum efficiency: capacity vs operating spectrum (15 gateways)",
		Paper: "Capacity scales with spectrum for every strategy; full AlphaWAN achieves ≈3.9× the per-MHz user capacity of standard LoRaWAN.",
		Run:   runFig12b,
	})
	register(Experiment{
		ID:    "fig12c",
		Title: "Contention management: gateway-side only vs gateway+node cooperation",
		Paper: "Mean capacity grows 42 → 57 → 68 users from standard LoRaWAN to AlphaWAN without and with node-side cooperation.",
		Run:   runFig12c,
	})
	register(Experiment{
		ID:    "fig12de",
		Title: "Spectrum sharing among 1–6 coexisting networks (3 GWs + 24 users each)",
		Paper: "Standard per-network capacity collapses as networks multiply; AlphaWAN sustains ≥20 users per network and improves per-MHz utilization by 158.9%–778.1%.",
		Run:   runFig12de,
	})
}

// planProbe builds a network with g gateways and 144 ring users on the
// testbed band, learns, plans with AlphaWAN (optionally with Strategy ①
// disabled via fixedChannels=8), applies, and probes capacity.
func planProbe(seed int64, gws int, nodeSide bool, fixedChannels int) int {
	n, op := buildCity(seed, region.Testbed, gws)
	n.LearningSweep(0, des.Second, region.Testbed.AllChannels(), 3)
	if _, err := alphaWANPlan(op, region.Testbed.AllChannels(), nodeSide, fixedChannels, seed); err != nil {
		panic(err)
	}
	got := n.CapacityProbe(n.Sim.Now() + 10*des.Second)
	return got[op.ID]
}

// standardProbe measures the standard-LoRaWAN capacity with g gateways.
func standardProbe(seed int64, gws int) int {
	n, op := buildCity(seed, region.Testbed, gws)
	got := n.CapacityProbe(5 * des.Second)
	return got[op.ID]
}

// randomCPProbe measures the Random CP baseline: the testbed deployment,
// but with Random CP gateway configurations installed.
func randomCPProbe(seed int64, gws int) int {
	n, op := buildCity(seed, region.Testbed, gws)
	cfgs := baseline.RandomCPConfigs(region.Testbed, gws, cotsModel.Chipset, op.Sync, seed)
	if err := op.ApplyGatewayConfigs(cfgs); err != nil {
		panic(err)
	}
	got := n.CapacityProbe(5 * des.Second)
	return got[op.ID]
}

func runFig12a(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 12a — max concurrent users vs gateways",
		"#gateways", "oracle", "LoRaWAN (standard)", "Random CP", "AlphaWAN (no S1)", "AlphaWAN (full)",
	)}
	gws := []int{1, 3, 5, 7, 9, 11, 13, 15}
	type cellOut struct{ std, rnd, noS1, full int }
	cells := runner.Map(len(gws), func(i int) cellOut {
		g := gws[i]
		return cellOut{
			std:  standardProbe(seed, g),
			rnd:  randomCPProbe(seed, g),
			noS1: planProbe(seed, g, true, 8),
			full: planProbe(seed, g, true, 0),
		}
	})
	var fullAt9, fullAt15, stdMax int
	for i, g := range gws {
		c := cells[i]
		if c.std > stdMax {
			stdMax = c.std
		}
		if g == 9 {
			fullAt9 = c.full
		}
		if g == 15 {
			fullAt15 = c.full
		}
		res.Table.AddRow(g, 144, c.std, c.rnd, c.noS1, c.full)
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
	type cellOut struct{ std, rnd, noS1, full int }
	cells := runner.Map(len(sweep), func(i int) cellOut {
		band := spectrumBand(sweep[i])
		probe := func(randomCP, plan bool, fixed int) int {
			n, op := buildCity(seed, band, 15)
			if randomCP {
				cfgs := baseline.RandomCPConfigs(band, 15, cotsModel.Chipset, op.Sync, seed)
				if err := op.ApplyGatewayConfigs(cfgs); err != nil {
					panic(err)
				}
			}
			if plan {
				n.LearningSweep(0, des.Second, band.AllChannels(), 3)
				if _, err := alphaWANPlan(op, band.AllChannels(), true, fixed, seed); err != nil {
					panic(err)
				}
			}
			got := n.CapacityProbe(n.Sim.Now() + 10*des.Second)
			return got[op.ID]
		}
		return cellOut{
			std:  probe(false, false, 0),
			rnd:  probe(true, false, 0),
			noS1: probe(false, true, 8),
			full: probe(false, true, 0),
		}
	})
	var firstRatio, lastRatio float64
	for i, chs := range sweep {
		c := cells[i]
		mhz := float64(chs) * 0.2
		users := spectrumBand(chs).TheoreticalCapacity()
		stdMHz := float64(c.std) / mhz
		fullMHz := float64(c.full) / mhz
		if chs == 8 {
			firstRatio = fullMHz / stdMHz
		}
		if chs == 32 {
			lastRatio = fullMHz / stdMHz
		}
		res.Table.AddRow(mhz, users, c.std, c.rnd, c.noS1, c.full, stdMHz, fullMHz)
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
		name     string
		plan     bool
		nodeSide bool
	}{
		{"LoRaWAN (standard)", false, false},
		{"AlphaWAN (w/o node side)", true, false},
		{"AlphaWAN (full)", true, true},
	}
	caps := runner.Map(len(variants)*seeds, func(i int) int {
		v := variants[i/seeds]
		s := seed + int64(i%seeds)
		n, op := buildCity(s, band, gws)
		if v.plan {
			n.LearningSweep(0, des.Second, band.AllChannels(), 3)
			if _, err := alphaWANPlan(op, band.AllChannels(), v.nodeSide, 0, s); err != nil {
				panic(err)
			}
		}
		got := n.CapacityProbe(n.Sim.Now() + 10*des.Second)
		return got[op.ID]
	})
	var means []float64
	for vi, v := range variants {
		var sum, lo, hi int
		lo = 1 << 30
		for s := 0; s < seeds; s++ {
			c := caps[vi*seeds+s]
			sum += c
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
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

// coexNetwork builds k networks sharing the 1.6 MHz spectrum; alphaWAN
// selects Master-assigned misaligned plans with the given overlap setting
// (0 = standard homogeneous plans). Returns per-network capacities.
func coexNetwork(seed int64, nets int, overlap float64) map[int]int {
	// Shadowed links: power disparity lets capture resolve some of the
	// cross-network collisions, as in the real testbed.
	n := sim.New(seed, testbedEnv(seed))
	spec := master.FromBand(region.AS923)
	for k := 0; k < nets; k++ {
		op := n.AddOperator()
		var chans []region.Channel
		if overlap > 0 {
			shiftUnit := region.Hz((1 - overlap) * float64(lora.BW125))
			chans = master.PlanChannelsWithShift(spec, region.Hz(int64(k)*int64(shiftUnit))%200_000)
		} else {
			chans = region.AS923.AllChannels()
		}
		// Intra-network heterogeneous split of the (possibly shifted)
		// plan across the 3 gateways: 3/3/2 channels.
		blocks := [][2]int{{0, 3}, {3, 3}, {6, 2}}
		for g := 0; g < 3; g++ {
			cfg := radio.Config{Sync: op.Sync}
			if overlap > 0 {
				b := blocks[g]
				cfg.Channels = append(cfg.Channels, chans[b[0]:b[0]+b[1]]...)
			} else {
				cfg.Channels = chans // standard: homogeneous full plan
			}
			if _, err := op.AddGateway(cotsModel, phy.Pt(float64(k)*10+float64(g)*3, float64(k)), cfg); err != nil {
				panic(err)
			}
		}
		// 24 users with distinct (channel, DR) settings on the network's
		// plan; each network's DR set is offset so that (at least for
		// small network counts) settings stay distinct across networks.
		for i := 0; i < 24; i++ {
			ch := chans[i%8]
			dr := lora.DR((i/8*2 + k) % 6)
			ang := float64(i+24*k) / float64(24*nets)
			radius := 100 + float64((i*37+k*11)%250)
			pos := phy.Pt(radius*cosTau(ang), radius*sinTau(ang))
			op.AddNode(pos, []region.Channel{ch}, dr)
		}
	}
	got := n.CapacityProbe(5 * des.Second)
	out := map[int]int{}
	for k := 0; k < nets; k++ {
		out[k] = got[n.Operators[k].ID]
	}
	return out
}

func runFig12de(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 12d/e — spectrum sharing across coexisting networks (1.6 MHz)",
		"#networks", "std per-net", "AW20% per-net", "AW40% per-net", "AW60% per-net", "std /MHz", "AW40% /MHz",
	)}
	overlaps := []float64{0, 0.2, 0.4, 0.6}
	mean := func(m map[int]int) float64 {
		t := 0
		for _, v := range m {
			t += v
		}
		return float64(t) / float64(len(m))
	}
	// One cell per (network count, overlap) pair: 24 independent probes.
	cells := runner.Map(6*len(overlaps), func(i int) float64 {
		nets := i/len(overlaps) + 1
		return mean(coexNetwork(seed, nets, overlaps[i%len(overlaps)]))
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

func cosTau(x float64) float64 { return math.Cos(2 * math.Pi * x) }
func sinTau(x float64) float64 { return math.Sin(2 * math.Pi * x) }
