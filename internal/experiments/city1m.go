package experiments

import (
	"math"
	"time"

	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/soa"
	"github.com/alphawan/alphawan/internal/tabulate"
	"github.com/alphawan/alphawan/internal/traffic"
)

var (
	city1M = Experiment{
		ID:    "city-1M",
		Title: "City-scale coexistence: 100k-1M devices, two operators, three strategies (sharded SoA core)",
		Paper: "§6's massive-connectivity projection: LoRaWAN-class networks must absorb city populations of IoT devices; harmonious channel planning keeps delivery high where unplanned coexistence saturates.",
		Run:   runCity1M,
	}
	citySmoke = Experiment{
		ID:    "city-smoke",
		Title: "City-scale smoke cell: one AlphaWAN-planned run at the CI scale",
		Paper: "CI-sized cut of city-1M: a single planned-coexistence run whose bytes/device footprint the workflow gates.",
		Run:   runCitySmoke,
	}
)

// cityStrategy selects how operator A (the AlphaWAN adopter candidate)
// assigns gateway channel plans and whether its gateways cancel
// collisions. Operator B is always the fixed coexisting incumbent on
// sequential plans.
type cityStrategy struct {
	name string
	// colored assigns plans by gateway-grid coloring so that adjacent
	// gateways never share a sub-band — the planned-coexistence
	// (AlphaWAN-style) assignment. Unset means sequential plans.
	colored bool
	// cic enables successive interference cancellation at the medium.
	cic bool
}

// The three swept strategies: unplanned sequential plans, CIC-capable
// gateways on unplanned plans, and AlphaWAN-style harmonious planning
// (interference-aware plan coloring on top of the capable gateways —
// the paper's principle ① plus ④).
var cityStrategies = []cityStrategy{
	{name: "standard"},
	{name: "cic", cic: true},
	{name: "alphawan", colored: true, cic: true},
}

// cityDensity is the device density of the city deployments, devices/m²
// (4000 devices per km² — §6's massive-connectivity regime).
const cityDensity = 0.004

// cityGWSpacing is the target gateway grid pitch in meters.
const cityGWSpacing = 1200.0

// cityGrid places one operator's gateway grid over a side×side area:
// n×n gateways at even pitch, offset so operator B's grid interleaves
// operator A's.
type cityGrid struct {
	n       int
	spacing float64
	off     float64
}

func newCityGrid(side float64, interleaved bool) cityGrid {
	n := int(side/cityGWSpacing + 0.5)
	if n < 1 {
		n = 1
	}
	g := cityGrid{n: n, spacing: side / float64(n)}
	g.off = g.spacing / 2
	if interleaved {
		g.off += g.spacing / 4
	}
	return g
}

func (g cityGrid) pos(ix, iy int) phy.Point {
	return phy.Pt(g.off+float64(ix)*g.spacing, g.off+float64(iy)*g.spacing)
}

// nearest returns the grid indices of the gateway closest to (x, y).
func (g cityGrid) nearest(x, y float64) (int, int) {
	clamp := func(v float64) int {
		i := int(math.Floor((v - g.off) / g.spacing))
		// The floor cell's two candidate centers; pick the closer one.
		if v-(g.off+float64(i)*g.spacing) > g.spacing/2 {
			i++
		}
		if i < 0 {
			i = 0
		}
		if i >= g.n {
			i = g.n - 1
		}
		return i
	}
	return clamp(x), clamp(y)
}

// cityCore builds one (scale, strategy) deployment: two operators over a
// side×side area sized for cityDensity, operator A carrying 60% of the
// devices under the swept strategy, operator B the remaining 40% on
// fixed sequential plans. Devices take the channel plan of their nearest
// own-operator gateway and the fastest DR that link clears with 2 dB
// margin — the standard ADR assignment both operators run. slots and
// capture select the MAC overlay of the run (nil, nil is pure ALOHA —
// bit-identical to the pre-MAC-seam core).
func cityCore(seed int64, devices int, strat cityStrategy, slots *mac.SlotGrid, capture mac.CaptureModel) *soa.Core {
	side := math.Sqrt(float64(devices) / cityDensity)
	env := phy.Metro(seed)
	band := region.Testbed
	plans := band.Plans()
	syncs := []lora.SyncWord{0x34, 0x12}

	c := soa.New(soa.Config{
		Seed: seed, Env: env,
		Width: side, Height: side,
		CellSize:          prof.cityCell,
		MeanInterval:      prof.cityMeanInterval,
		ResolveCollisions: strat.cic,
		Slots:             slots,
		Capture:           capture,
	})

	planChans := make([][]region.Channel, plans)
	for p := range planChans {
		for _, ci := range band.Plan(p) {
			planChans[p] = append(planChans[p], band.Channel(ci))
		}
	}

	grids := []cityGrid{newCityGrid(side, false), newCityGrid(side, true)}
	gwPlan := func(net, ix, iy int) int {
		if net == 0 && strat.colored {
			// Grid 3-coloring: horizontal neighbors differ by 1, vertical
			// by 2 (mod 3) — adjacent gateways never share a sub-band.
			return (ix + 2*iy) % plans
		}
		return (iy*grids[net].n + ix) % plans
	}
	for net, g := range grids {
		for iy := 0; iy < g.n; iy++ {
			for ix := 0; ix < g.n; ix++ {
				c.AddGateway(g.pos(ix, iy), phy.Omni(3), medium.NetworkID(net), syncs[net],
					planChans[gwPlan(net, ix, iy)], 16)
			}
		}
	}

	pts := traffic.JitterPositions(devices, side, side, seed)
	for i, pt := range pts {
		net := 1
		if i%5 < 3 {
			net = 0 // 60% operator A
		}
		g := grids[net]
		ix, iy := g.nearest(pt.X, pt.Y)
		gw := g.pos(ix, iy)
		snr := env.SNRdB(phy.Link{TXPowerDBm: 14, TXPos: phy.Pt(pt.X, pt.Y), RXPos: gw, RXAntenna: phy.Omni(3)})
		dr, _ := phy.MaxDR(snr, 2)
		c.AddDevice(phy.Pt(pt.X, pt.Y), medium.NetworkID(net), syncs[net],
			planChans[gwPlan(net, ix, iy)], dr, 14)
	}
	c.Seal()
	return c
}

// cityRow renders one run into table cells.
func cityRow(devices int, name string, st *soa.RunStats) []any {
	a, b := st.Network(0), st.Network(1)
	return []any{
		devices, name, st.TotalTx,
		sprintf("%.3f", a.PRR()), sprintf("%.3f", b.PRR()),
		sprintf("%.3f", a.DecoderContentionRatio()),
		sprintf("%.3f", a.ChannelContentionRatio()),
		sprintf("%.3f", a.LossRatio(metrics.Others)),
	}
}

var cityHeaders = []string{
	"devices", "strategy", "transmissions",
	"PRR op-A", "PRR op-B",
	"op-A decoder loss", "op-A channel loss", "op-A others loss",
}

func runCity1M(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"City-1M — million-device coexistence on the sharded SoA core",
		cityHeaders...,
	)}
	// The runs go sequentially: the sharded core already spreads each
	// sweep across the worker pool, and holding one arena at a time keeps
	// the 1M-device peak footprint bounded.
	prrA := map[string]map[int]float64{}
	for _, devices := range prof.cityScales {
		for _, strat := range cityStrategies {
			c := cityCore(seed, devices, strat, nil, nil)
			t0 := time.Now()
			st := c.Run(prof.cityWindow)
			elapsed := time.Since(t0)
			res.Table.AddRow(cityRow(devices, strat.name, st)...)
			res.Devices += devices
			res.Sidecarf("%d devices / %s: %.1f s wall-clock, %.0f devices/sec (%d cells, %d tx)",
				devices, strat.name, elapsed.Seconds(),
				float64(devices)/math.Max(elapsed.Seconds(), 1e-9), st.Cells, st.TotalTx)
			if prrA[strat.name] == nil {
				prrA[strat.name] = map[int]float64{}
			}
			prrA[strat.name][devices] = st.Network(0).PRR()
		}
	}
	top := prof.cityScales[len(prof.cityScales)-1]
	res.Note("PRR for operator A at %d devices: planned coexistence %.3f vs standard %.3f, CIC %.3f (paper: harmonious planning sustains delivery where unplanned coexistence saturates)",
		top, prrA["alphawan"][top], prrA["standard"][top], prrA["cic"][top])
	lo := prof.cityScales[0]
	res.Note("constant-density scaling holds: standard-plan PRR stays near %.3f from %d to %d devices (%.3f), so the strategy gap — not raw scale — decides delivery across the metro area",
		prrA["standard"][lo], lo, top, prrA["standard"][top])
	return res
}

func runCitySmoke(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"City smoke — one planned-coexistence run at the CI scale",
		cityHeaders...,
	)}
	devices := prof.citySmoke
	c := cityCore(seed, devices, cityStrategy{name: "alphawan", colored: true, cic: true}, nil, nil)
	t0 := time.Now()
	st := c.Run(prof.cityWindow)
	elapsed := time.Since(t0)
	res.Table.AddRow(cityRow(devices, "alphawan", st)...)
	res.Devices = devices
	res.Sidecarf("%d devices: %.1f s wall-clock, %.0f devices/sec (%d cells, %d tx)",
		devices, elapsed.Seconds(), float64(devices)/math.Max(elapsed.Seconds(), 1e-9),
		st.Cells, st.TotalTx)
	res.Note("planned-coexistence smoke run: PRR op-A %.3f over %d transmissions", st.Network(0).PRR(), st.TotalTx)
	return res
}
