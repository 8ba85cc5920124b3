// Package soa is the sharded struct-of-arrays simulation core for
// city-scale runs (10⁵–10⁶ devices). It trades the event-per-callback
// generality of des.Sim + medium.Medium for a layout and schedule built
// around the actual structure of massive LoRaWAN workloads:
//
//   - Device state lives in dense parallel slices (Arena), not one heap
//     object per device — 75 B/device, invisible to the GC.
//   - The metro area is partitioned into square grid cells. Each cell
//     owns the gateways inside it, a frequency-bin interest index over
//     their channels, and its own event queue; cells are swept in
//     parallel (internal/runner) over fixed time epochs.
//   - Cells exchange only boundary interference: a transmission is
//     exported to exactly the cells its worst-case link budget can still
//     reach (see InterferenceFloorDBm), so cross-cell traffic scales
//     with physical reach, not deployment size.
//
// The decode decision is medium.Judgement, the kernel internal/medium
// itself calls; this package supplies its own neighbour walk over the
// cell tables and its own port bookkeeping (link budget — each evaluated
// at most once per cell, see Core.link — detection threshold, decoder
// FCFS), and TestEnginesAgreeOnVerdicts holds the two engines to the same
// verdict for every packet of a shared schedule. One
// deliberate deviation: interferers whose received power is below
// InterferenceFloorDBm are excluded from the judgement everywhere (medium
// folds them into the noise integral no matter how faint). That explicit
// floor is what makes the sharded sweep deterministic: a sub-floor
// interferer may be present in one grid shape and absent in another, so
// results are bit-identical for every grid size and worker count only
// because such interferers are ignored uniformly. The fidelity cost on the
// noise budget is bounded: a floor-level interferer shifts a packet's SINR
// by < 0.02 dB, 26 dB below the noise floor. Under CIC the floor also
// keeps such interferers out of the collider census, which can turn an
// unresolvable three-packet pile-up into a cancellable pair (about 1% of
// verdicts in the differential test's scenario; DESIGN §13).
package soa

import (
	"fmt"
	"math"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// LoRaWANOverhead is the PHY-payload overhead of an uplink data frame
// (MHDR + FHDR + FPort + MIC), matching what node.Node's real frame
// builder produces for the experiments' unconfirmed uplinks.
const LoRaWANOverhead = 13

// binWidth is the frequency-bin granularity of the interest indexes —
// the same 200 kHz channel-grid spacing internal/medium bins by.
const binWidth = 200_000

// InterferenceFloorDBm is the received power below which an interferer is
// excluded from reception judgement. 26 dB under the 125 kHz noise floor,
// a single such interferer perturbs SINR by well under 0.02 dB.
var InterferenceFloorDBm = lora.NoiseFloorDBm(lora.BW125) - 26

// maxTime is the drain horizon sentinel.
const maxTime = des.Time(math.MaxInt64)

// Config parameterizes a sharded run.
type Config struct {
	// Seed drives every random stream of the run.
	Seed int64
	// Env is the propagation model. Use an environment with ShadowClamp
	// set (e.g. phy.Metro) so worst-case reach — and with it the
	// cross-cell export sets — stays tight.
	Env phy.Environment
	// Width, Height bound the deployment area in meters.
	Width, Height float64
	// CellSize is the grid-cell edge in meters (default 1500). One cell
	// spanning the whole area degenerates to a serial sweep — the
	// baseline the determinism tests compare against.
	CellSize float64
	// Epoch is the parallel sweep quantum (default 10 s). Any positive
	// value yields identical results; it only trades scheduling overhead
	// against the size of the per-epoch transmission batches.
	Epoch des.Time
	// MeanInterval is the mean Poisson inter-transmission gap per device.
	MeanInterval des.Time
	// PayloadLen is the application payload size in bytes (default 10).
	PayloadLen int
	// DutyCycle caps each device's airtime fraction (default 1%).
	DutyCycle float64
	// ResolveCollisions enables CIC successive interference cancellation
	// at every gateway (medium.Rule.ResolveCollisions).
	ResolveCollisions bool
	// Slots, when non-nil, installs a slotted-ALOHA overlay: every device
	// defers each Poisson arrival to its next legal slot boundary on the
	// shared grid (see mac.SlotGrid), using the device's downlink-observed
	// anchor from Arena.Anchor. Nil keeps pure ALOHA bit-for-bit.
	Slots *mac.SlotGrid
	// Capture, when non-nil, replaces the classic same-settings collision
	// verdict and, when the model separates preambles, the preamble
	// burial gate (medium.Rule.Capture). Nil keeps the classic rule
	// bit-for-bit.
	Capture mac.CaptureModel
}

// portState is one gateway reception port (the SoA counterpart of
// medium.Port + radio.Radio for the uplink path).
type portState struct {
	pos      phy.Point
	ant      phy.Antenna
	net      uint8
	sync     uint8
	decoders int32
	// cell is the owning grid cell; slot is the port's index within that
	// cell's ports — its column in the cell's link-budget memo.
	cell, slot int32
	chans      []int32
	// detect[ch] reports whether this port's radio detects chanTab[ch]
	// (best overlap ≥ radio.DetectOverlapThreshold) — the precomputed
	// radio.Detects.
	detect []bool
	// busy/busyForeign is the live decoder occupancy, mirroring
	// radio.Radio's FCFS pool. Only the owning cell's sweep touches it.
	busy, busyForeign int32
}

// cellState is one grid cell's shard: its interest index and the sweep
// state that persists across epochs.
type cellState struct {
	ports []int32
	// interest[bin] lists the ports (ascending id) that could detect a
	// transmission whose center falls in the bin, built with the same
	// ±2 guard bins as medium's index.
	interest [][]int32

	// store is the cell's active-transmission arena; bins indexes it by
	// frequency bin in (start, gid) order; heap is the pending lock-on /
	// decode-end events.
	store []txRec
	bins  [][]int32
	heap  []swEvent
	// rssi is the link-budget memo, parallel to store: row ti holds
	// store[ti]'s received power at each of the cell's own ports (one
	// column per portState.slot), NaN until Core.link first needs it.
	rssi []float64
	// queue is the epoch's incoming transmissions (start-ordered).
	queue []txRec
	// contribs is the epoch's outcome contributions, merged serially
	// after the parallel sweep.
	contribs []contrib
	// judgement is the cell's reusable decode judgement (a cell is swept
	// by one worker at a time); remap backs the epoch compaction.
	judgement medium.Judgement
	remap     []int32
}

// Core is a sealed city-scale simulation: arena + gateways + grid.
type Core struct {
	cfg  Config
	devs Arena

	chanTab []region.Channel
	chanKey map[region.Channel]int32
	setTab  [][]int32
	setKey  map[string]int32

	ports []portState
	cells []cellState

	// rule is the collision policy every port's judgement applies.
	rule medium.Rule

	sealed bool
	done   bool

	nx, ny int
	// targets[cell] lists the cells (ascending, including itself) whose
	// ports a transmission from this cell can reach above
	// InterferenceFloorDBm on a worst-case link budget.
	targets [][]int32

	// Per-DR airtime/preamble at the run's fixed PHY length, and the
	// per-channel-pair spectral tables (victim-major).
	air, pre   [lora.NumDRs]des.Time
	demod      [lora.NumDRs]float64
	rej        [lora.NumDRs][lora.NumDRs]float64
	maxAir     des.Time
	ov         [][]float64
	chanBinIdx []int32
	nbins      int

	maxPower   float64
	maxAntGain float64
	noiseDBm   float64
	noiseLin   float64
	// floorR2 and lockR2[dr] are the squared distances beyond which no
	// link of this run can deliver InterferenceFloorDBm, respectively
	// lock on at the DR's demodulation floor (see gate2).
	floorR2 float64
	lockR2  [lora.NumDRs]float64

	// Run state.
	now       des.Time
	gidNext   int64
	pendStart int64
	pend      []pendRec
	sendBufs  [][]sendRec
	sends     []sendRec
	// genT1 and sweepT1 carry the epoch horizon into genShard and
	// sweepShard; genFn and sweepFn are the cached closures handed to the
	// runner (see genEpoch).
	genT1, sweepT1 des.Time
	genFn, sweepFn func(int)
	// onBudget, when set (tests and benchmarks only), observes every
	// link-budget evaluation: store[ti] of cell cs at port p.
	onBudget func(cs *cellState, ti int32, p *portState)

	stats  []metrics.NetworkStats
	seen   []bool
	epochs int
}

// New creates an unsealed core with the given configuration, applying
// defaults for CellSize (1500 m), Epoch (10 s), PayloadLen (10 B), and
// DutyCycle (1%).
func New(cfg Config) *Core {
	if cfg.CellSize <= 0 {
		cfg.CellSize = 1500
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * des.Second
	}
	if cfg.PayloadLen == 0 {
		cfg.PayloadLen = 10
	}
	if cfg.DutyCycle == 0 {
		cfg.DutyCycle = 0.01
	}
	if cfg.MeanInterval <= 0 {
		panic("soa: Config.MeanInterval must be positive")
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("soa: Config.Width/Height must be positive")
	}
	return &Core{
		cfg:      cfg,
		rule:     medium.Rule{ResolveCollisions: cfg.ResolveCollisions, Capture: cfg.Capture},
		chanKey:  make(map[region.Channel]int32),
		setKey:   make(map[string]int32),
		maxPower: math.Inf(-1),
		stats:    make([]metrics.NetworkStats, 256),
		seen:     make([]bool, 256),
	}
}

// AddGateway appends one gateway reception port and returns its index.
// Must be called before Seal.
func (c *Core) AddGateway(pos phy.Point, ant phy.Antenna, net medium.NetworkID, sync lora.SyncWord, channels []region.Channel, decoders int) int {
	if c.sealed {
		panic("soa: AddGateway after Seal")
	}
	if net < 0 || net > 255 {
		panic(fmt.Sprintf("soa: network id %d out of the port's uint8 range", net))
	}
	if decoders <= 0 {
		panic("soa: gateway with no decoders")
	}
	chans := make([]int32, len(channels))
	for i, ch := range channels {
		chans[i] = c.internChannel(ch)
	}
	p := portState{
		pos: pos, ant: ant, net: uint8(net), sync: uint8(sync),
		decoders: int32(decoders), chans: chans,
	}
	if ant.GainDBi > c.maxAntGain {
		c.maxAntGain = ant.GainDBi
	}
	c.ports = append(c.ports, p)
	return len(c.ports) - 1
}

func bin(f region.Hz) int32 { return int32(f / binWidth) }

func (c *Core) cellIndex(x, y float64) int32 {
	ix := int(x / c.cfg.CellSize)
	iy := int(y / c.cfg.CellSize)
	if ix < 0 {
		ix = 0
	} else if ix >= c.nx {
		ix = c.nx - 1
	}
	if iy < 0 {
		iy = 0
	} else if iy >= c.ny {
		iy = c.ny - 1
	}
	return int32(iy*c.nx + ix)
}

// reachRadius returns the distance beyond which no transmission in this
// run can deliver floorDBm at any port, on the best-case budget: max
// device power, max antenna gain, max shadowing (which
// phy.Environment.MaxShadowDB bounds — tightly when ShadowClamp is set).
func (c *Core) reachRadius(floorDBm float64) float64 {
	if len(c.devs.X) == 0 {
		return 0
	}
	budget := c.maxPower + c.maxAntGain + c.cfg.Env.MaxShadowDB() - floorDBm
	e := c.cfg.Env
	if e.Exponent <= 0 {
		return math.Inf(1)
	}
	r := e.D0 * math.Pow(10, (budget-e.PL0)/(10*e.Exponent))
	if r < e.D0 {
		r = e.D0
	}
	return r
}

// gate2 squares a reach radius for Core.link's distance gates, inflated by
// a relative 1e-9 first: the gate compares dx²+dy² where the budget takes
// math.Hypot, and that rounding may only err towards evaluating the link.
func gate2(r float64) float64 {
	r *= 1 + 1e-9
	return r * r
}

// rectDist returns the minimum distance between two grid-cell rectangles.
func rectDist(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) float64 {
	dx := math.Max(0, math.Max(bx0-ax1, ax0-bx1))
	dy := math.Max(0, math.Max(by0-ay1, ay0-by1))
	return math.Hypot(dx, dy)
}

// Seal freezes the deployment: assigns devices and ports to grid cells,
// builds the per-cell interest indexes, the channel-pair spectral tables,
// the per-DR airtimes, and the cross-cell reachability sets. After Seal
// the topology is immutable and Run may be called.
func (c *Core) Seal() {
	if c.sealed {
		panic("soa: Seal called twice")
	}
	c.sealed = true

	phyLen := c.cfg.PayloadLen + LoRaWANOverhead
	for d := lora.DR0; d <= lora.DR5; d++ {
		p := lora.DefaultParams(d)
		c.air[d] = des.FromDuration(p.Airtime(phyLen))
		c.pre[d] = des.FromDuration(p.PreambleDuration())
		c.demod[d] = lora.DemodFloorSNR(d.SF())
		if c.air[d] > c.maxAir {
			c.maxAir = c.air[d]
		}
		for u := lora.DR0; u <= lora.DR5; u++ {
			c.rej[d][u] = lora.CoChannelRejection(d.SF(), u.SF())
		}
	}
	c.noiseDBm = lora.NoiseFloorDBm(lora.BW125)
	c.noiseLin = dbmToMw(c.noiseDBm)

	// Grid shape.
	c.nx = int(math.Ceil(c.cfg.Width / c.cfg.CellSize))
	c.ny = int(math.Ceil(c.cfg.Height / c.cfg.CellSize))
	if c.nx < 1 {
		c.nx = 1
	}
	if c.ny < 1 {
		c.ny = 1
	}
	c.cells = make([]cellState, c.nx*c.ny)

	// Frequency-bin range across every interned channel, with the ±2
	// guard bins medium's interest index uses.
	if len(c.chanTab) == 0 {
		panic("soa: Seal with no channels (no devices or gateways)")
	}
	minBin, maxBin := int32(math.MaxInt32), int32(math.MinInt32)
	for _, ch := range c.chanTab {
		if b := bin(ch.Low()); b < minBin {
			minBin = b
		}
		if b := bin(ch.High()); b > maxBin {
			maxBin = b
		}
	}
	binBase := minBin - 2
	c.nbins = int(maxBin-binBase) + 3
	c.chanBinIdx = make([]int32, len(c.chanTab))
	for i, ch := range c.chanTab {
		c.chanBinIdx[i] = bin(ch.Center) - binBase
	}

	// Victim-major spectral overlap table.
	c.ov = make([][]float64, len(c.chanTab))
	for v := range c.chanTab {
		c.ov[v] = make([]float64, len(c.chanTab))
		for u := range c.chanTab {
			c.ov[v][u] = c.chanTab[v].Overlap(c.chanTab[u])
		}
	}

	// Ports: precompute detection, assign to cells, build interest.
	for i := range c.ports {
		p := &c.ports[i]
		p.detect = make([]bool, len(c.chanTab))
		for ch := range c.chanTab {
			best := 0.0
			for _, pc := range p.chans {
				if ov := c.ov[ch][int(pc)]; ov >= radio.DetectOverlapThreshold && ov > best {
					best = ov
				}
			}
			p.detect[ch] = best > 0
		}
		p.cell = c.cellIndex(p.pos.X, p.pos.Y)
		cs := &c.cells[p.cell]
		p.slot = int32(len(cs.ports))
		cs.ports = append(cs.ports, int32(i))
		if cs.interest == nil {
			cs.interest = make([][]int32, c.nbins)
		}
		for _, pc := range p.chans {
			ch := c.chanTab[pc]
			lo, hi := bin(ch.Low())-2-binBase, bin(ch.High())+2-binBase
			if lo < 0 {
				lo = 0
			}
			if hi >= int32(c.nbins) {
				hi = int32(c.nbins) - 1
			}
			for b := lo; b <= hi; b++ {
				s := cs.interest[b]
				// Ports are visited in ascending id order, so a port's
				// duplicate registrations (adjacent own channels) are
				// always at the tail.
				if n := len(s); n > 0 && s[n-1] == int32(i) {
					continue
				}
				cs.interest[b] = append(s, int32(i))
			}
		}
	}
	for i := range c.cells {
		if c.cells[i].bins == nil {
			c.cells[i].bins = make([][]int32, c.nbins)
		}
	}

	// Devices → cells.
	for d := 0; d < c.devs.Len(); d++ {
		c.devs.cell[d] = c.cellIndex(c.devs.X[d], c.devs.Y[d])
	}

	// Cross-cell reachability: cell b is a target of cell a when the
	// closest approach of their rectangles is within the worst-case
	// interference reach.
	r := c.reachRadius(InterferenceFloorDBm)
	c.floorR2 = gate2(r)
	for d := range c.lockR2 {
		c.lockR2[d] = gate2(c.reachRadius(c.noiseDBm + c.demod[d]))
	}
	cs := c.cfg.CellSize
	c.targets = make([][]int32, len(c.cells))
	for a := range c.cells {
		ax0 := float64(a%c.nx) * cs
		ay0 := float64(a/c.nx) * cs
		for b := range c.cells {
			if len(c.cells[b].ports) == 0 {
				continue
			}
			bx0 := float64(b%c.nx) * cs
			by0 := float64(b/c.nx) * cs
			if rectDist(ax0, ay0, ax0+cs, ay0+cs, bx0, by0, bx0+cs, by0+cs) <= r {
				c.targets[a] = append(c.targets[a], int32(b))
			}
		}
	}

	// Traffic: first Poisson arrival per device.
	for d := 0; d < c.devs.Len(); d++ {
		c.devs.nextTick[d] = c.gap(d)
	}
}

// Cells returns the grid shape after Seal.
func (c *Core) Cells() (nx, ny int) { return c.nx, c.ny }

// RunStats is the aggregate outcome of a sharded run. Per-network
// statistics reuse metrics.NetworkStats, so PRR/loss-ratio accessors and
// downstream table code are shared with the event-driven collector.
type RunStats struct {
	Devices  int
	Gateways int
	Cells    int
	Epochs   int
	TotalTx  int64

	metrics.Tally
}

// Run simulates Poisson traffic from time zero until `until`, drains the
// in-flight transmissions, and returns the aggregate statistics. The
// result is bit-identical for any CellSize and any runner worker count.
func (c *Core) Run(until des.Time) *RunStats {
	if !c.sealed {
		panic("soa: Run before Seal")
	}
	if c.done {
		panic("soa: Run called twice")
	}
	c.done = true
	for t0 := c.now; t0 < until; {
		t1 := t0 + c.cfg.Epoch
		if t1 > until {
			t1 = until
		}
		c.genEpoch(t1)
		c.processEpoch(t1)
		t0 = t1
		c.epochs++
	}
	// Drain: no new traffic, run every pending event to completion.
	c.sends = c.sends[:0]
	c.processEpoch(maxTime)
	c.now = until

	st := &RunStats{
		Devices:  c.devs.Len(),
		Gateways: len(c.ports),
		Cells:    len(c.cells),
		Epochs:   c.epochs,
		TotalTx:  c.gidNext,
		Tally:    metrics.NewTally(c.stats, c.seen),
	}
	return st
}

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }
