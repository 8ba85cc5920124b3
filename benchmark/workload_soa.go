package main

import (
	"math"
	"runtime"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/soa"
	"github.com/alphawan/alphawan/internal/traffic"
)

// soaCityScale sizes soa-city: the city-smoke deployment shape (two
// operators over a metro area at 0.004 devices/m², operator A on coloured
// plans with CIC gateways) at a device count of its own.
type soaCityScale struct {
	devices      int
	window, mean des.Time
	cell         float64
}

var (
	soaCityFull  = soaCityScale{300_000, 10 * des.Minute, 10 * des.Minute, 1500}
	soaCitySmoke = soaCityScale{3000, des.Minute, 2 * des.Minute, 250}
)

const (
	soaDensity   = 0.004  // devices per m²
	soaGWSpacing = 1200.0 // gateway grid pitch, m
)

// soaGrid is one operator's gateway grid over the side×side area;
// operator B's is offset so the two interleave.
type soaGrid struct {
	n            int
	spacing, off float64
}

func newSoaGrid(side float64, interleaved bool) soaGrid {
	n := int(side/soaGWSpacing + 0.5)
	if n < 1 {
		n = 1
	}
	g := soaGrid{n: n, spacing: side / float64(n)}
	g.off = g.spacing / 2
	if interleaved {
		g.off += g.spacing / 4
	}
	return g
}

func (g soaGrid) pos(ix, iy int) phy.Point {
	return phy.Pt(g.off+float64(ix)*g.spacing, g.off+float64(iy)*g.spacing)
}

// nearest returns the grid indices of the gateway closest to (x, y).
func (g soaGrid) nearest(x, y float64) (int, int) {
	idx := func(v float64) int {
		i := int(math.Round((v - g.off) / g.spacing))
		return min(max(i, 0), g.n-1)
	}
	return idx(x), idx(y)
}

// soaTimes splits one build into the part that fills the arena and Seal.
type soaTimes struct{ build, seal float64 }

// buildSoaCity composes and seals the core through soa's public API.
func buildSoaCity(seed int64, sc soaCityScale) (*soa.Core, soaTimes) {
	t0 := time.Now()
	side := math.Sqrt(float64(sc.devices) / soaDensity)
	env := phy.Metro(seed)
	band := region.Testbed
	plans := band.Plans()
	syncs := []lora.SyncWord{0x34, 0x12}

	c := soa.New(soa.Config{
		Seed: seed, Env: env, Width: side, Height: side,
		CellSize: sc.cell, MeanInterval: sc.mean, ResolveCollisions: true,
	})
	planChans := make([][]region.Channel, plans)
	for p := range planChans {
		for _, ci := range band.Plan(p) {
			planChans[p] = append(planChans[p], band.Channel(ci))
		}
	}
	grids := []soaGrid{newSoaGrid(side, false), newSoaGrid(side, true)}
	gwPlan := func(net, ix, iy int) int {
		if net == 0 {
			return (ix + 2*iy) % plans // 3-colouring: neighbours never share a sub-band
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
	for i, pt := range traffic.JitterPositions(sc.devices, side, side, seed) {
		net := 1
		if i%5 < 3 {
			net = 0 // 60 % operator A
		}
		g := grids[net]
		ix, iy := g.nearest(pt.X, pt.Y)
		snr := env.SNRdB(phy.Link{TXPowerDBm: 14, TXPos: phy.Pt(pt.X, pt.Y), RXPos: g.pos(ix, iy), RXAntenna: phy.Omni(3)})
		dr, _ := phy.MaxDR(snr, 2)
		c.AddDevice(phy.Pt(pt.X, pt.Y), medium.NetworkID(net), syncs[net], planChans[gwPlan(net, ix, iy)], dr, 14)
	}
	t1 := time.Now()
	c.Seal()
	return c, soaTimes{t1.Sub(t0).Seconds(), time.Since(t1).Seconds()}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runSoaCity(cfg runConfig) (*report, error) {
	r := newReport("soa-city")
	sc := soaCityFull
	if cfg.smoke {
		sc = soaCitySmoke
	}

	var setups, walls, cpus []float64
	var times soaTimes
	var digest string
	var last *soa.RunStats
	var tx int64
	rep := func(i int, timed bool) (float64, error) {
		// Every core is built on a collected heap; otherwise peak_rss_mb
		// depends on how much of the previous core is still uncollected.
		runtime.GC()
		id := cfg.tr.begin("rep", 0, int64(i))
		sb := cfg.tr.begin("soa.build+seal", id, int64(i))
		t0 := time.Now()
		c, bt := buildSoaCity(cfg.seed, sc)
		setup := time.Since(t0).Seconds()
		cfg.tr.end(sb)

		cpu0 := processCPUSeconds()
		t1 := time.Now()
		sr := cfg.tr.begin("soa.run", id, int64(i))
		st := c.Run(sc.window)
		cfg.tr.end(sr)
		wall := time.Since(t1).Seconds()
		cpu := processCPUSeconds() - cpu0
		cfg.tr.end(id)

		d := statsDigest(st.Network(0)) + "|" + statsDigest(st.Network(1))
		if digest == "" {
			digest = d
		} else if d != digest {
			r.problemf("repetition %d: result digest %s differs from %s", i, d, digest)
		}
		if timed {
			setups, walls, cpus = append(setups, setup), append(walls, wall), append(cpus, cpu)
			tx += st.TotalTx
			last, times = st, bt
		}
		return wall, nil
	}
	if err := repeatFor(cfg, true, 3, rep); err != nil {
		return nil, err
	}
	cfg.tr.stopProfile(r, tx)

	a, b := last.Network(0), last.Network(1)
	r.attempted = last.TotalTx
	r.failed = conserved(r, "operator A", a) + conserved(r, "operator B", b)
	if sent := int64(a.Sent + b.Sent); sent != last.TotalTx {
		r.problemf("networks sent %d, core counted %d transmissions", sent, last.TotalTx)
	}
	r.notef("%d reps × %d devices, %d tx, %d gateways, %d cells, PRR A %.4f B %.4f",
		len(walls), last.Devices, last.TotalTx, last.Gateways, last.Cells, a.PRR(), b.PRR())

	if cfg.tr == nil {
		r.closedMetrics(setups, walls, cpus, scale(walls, 1e3), tx, a.PRR(), 1e3*(1-a.PRR()))
		return r, nil
	}

	r.set("trace.work_per_s", float64(tx)/sum(walls))
	r.set("soa.build_s", times.build)
	r.set("soa.seal_s", times.seal)
	r.setMedian("soa.run_s", walls)
	r.set("soa.cells", float64(last.Cells))

	// Footprint of one sealed core, and the same run on one worker: both
	// cost a build each, outside the timed repetitions.
	before := heapInUse()
	c, _ := buildSoaCity(cfg.seed, sc)
	r.set("soa.bytes_per_device", float64(heapInUse()-before)/float64(sc.devices))
	prev := runner.SetMaxWorkers(1)
	t0 := time.Now()
	st := c.Run(sc.window)
	serial := time.Since(t0).Seconds()
	runner.SetMaxWorkers(prev)
	if d := statsDigest(st.Network(0)) + "|" + statsDigest(st.Network(1)); d != digest {
		r.problemf("one-worker run: result digest %s differs from %s", d, digest)
	}
	workers := runtime.GOMAXPROCS(0)
	r.set("soa.parallel_eff", serial/median(walls)/float64(workers))
	r.notef("one worker %.3f s vs %d workers %.3f s", serial, workers, median(walls))
	return r, nil
}
