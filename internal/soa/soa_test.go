package soa

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/traffic"
)

// townMAC translates a MAC kind into the Config fields that install it on
// a town-scale core (PayloadLen defaults to 10, so the PHY length the
// slot grid must cover is 10 + LoRaWANOverhead).
func townMAC(seed int64, kind mac.Kind) (*mac.SlotGrid, mac.CaptureModel) {
	switch kind {
	case mac.KindSlotted:
		return mac.NewSlotGrid(seed, 10+LoRaWANOverhead), nil
	case mac.KindCapture:
		return nil, mac.NewCurving()
	}
	return nil, nil
}

// buildTown constructs a two-operator deployment over a 3×3 km area:
// gateway grids per operator on interleaved channel plans, devices
// low-discrepancy-scattered with mixed DRs. cellSize and epoch select
// the sharding shape under test; kind selects the MAC strategy.
func buildTown(t testing.TB, seed int64, cellSize float64, epoch des.Time, cic bool, kind mac.Kind) *Core {
	t.Helper()
	const side = 3000.0
	slots, capture := townMAC(seed, kind)
	c := New(Config{
		Seed: seed, Env: phy.Metro(seed),
		Width: side, Height: side,
		CellSize: cellSize, Epoch: epoch,
		MeanInterval:      30 * des.Second,
		ResolveCollisions: cic,
		Slots:             slots,
		Capture:           capture,
	})
	band := region.Testbed
	syncs := []lora.SyncWord{0x34, 0x12}
	for net := 0; net < 2; net++ {
		off := float64(net) * 500
		gi := 0
		for gy := 0; gy < 3; gy++ {
			for gx := 0; gx < 3; gx++ {
				pos := phy.Pt(500+off+float64(gx)*1000, 500+off+float64(gy)*1000)
				var chans []region.Channel
				for _, ci := range band.Plan(gi % band.Plans()) {
					chans = append(chans, band.Channel(ci))
				}
				c.AddGateway(pos, phy.Omni(3), medium.NetworkID(net), syncs[net], chans, 8)
				gi++
			}
		}
	}
	pts := traffic.JitterPositions(600, side, side, seed)
	for i, pt := range pts {
		net := i % 2
		plan := (i / 2) % band.Plans()
		var chans []region.Channel
		for _, ci := range band.Plan(plan) {
			chans = append(chans, band.Channel(ci))
		}
		c.AddDevice(phy.Pt(pt.X, pt.Y), medium.NetworkID(net), syncs[net], chans, lora.DR(i%lora.NumDRs), 14)
	}
	c.Seal()
	return c
}

func runTown(t *testing.T, cellSize float64, epoch des.Time, cic bool, kind mac.Kind, workers int) *RunStats {
	t.Helper()
	prev := runner.SetMaxWorkers(workers)
	defer runner.SetMaxWorkers(prev)
	c := buildTown(t, 1, cellSize, epoch, cic, kind)
	return c.Run(2 * des.Minute)
}

// TestShardedMatchesSerial is the core determinism guarantee: one cell
// swept serially, a fine grid swept serially, and the same fine grid
// swept on six workers — with two different epoch quanta — must produce
// bit-identical statistics, for every MAC strategy. The slotted case is
// the sharpest: a slot-deferred send can land past one epoch horizon but
// inside another, so identical results across epoch quanta prove the
// horizon-deferral logic of genEpoch.
func TestShardedMatchesSerial(t *testing.T) {
	for _, kind := range mac.Kinds() {
		for _, cic := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-cic=%v", kind, cic), func(t *testing.T) {
				serial := runTown(t, 4000, 10*des.Second, cic, kind, 1) // single cell
				if serial.Cells != 1 {
					t.Fatalf("serial shape has %d cells, want 1", serial.Cells)
				}
				if serial.TotalTx == 0 || serial.Total().Received == 0 {
					t.Fatalf("degenerate workload: %+v", serial.Total())
				}
				cases := []struct {
					name    string
					cell    float64
					epoch   des.Time
					workers int
				}{
					{"sharded-serial", 700, 10 * des.Second, 1},
					{"sharded-parallel", 700, 10 * des.Second, 6},
					{"sharded-odd-epoch", 700, 7*des.Second + 321*des.Millisecond, 6},
				}
				for _, tc := range cases {
					got := runTown(t, tc.cell, tc.epoch, cic, kind, tc.workers)
					if got.Cells <= 1 {
						t.Fatalf("%s: expected a multi-cell grid", tc.name)
					}
					if !reflect.DeepEqual(got.Tally, serial.Tally) ||
						got.TotalTx != serial.TotalTx {
						t.Errorf("%s: sharded run diverged from serial:\nserial total %+v\ngot    total %+v",
							tc.name, serial.Total(), got.Total())
					}
				}
			})
		}
	}
}

// TestGenEpochSteadyStateZeroAllocs guards the traffic generator's hot
// path: once the per-shard send buffers have grown to the workload's
// high-water mark, advancing an epoch — including the slotted scheduler's
// per-send TxTime — must not allocate. sort.Slice would box its closure
// every epoch; slices.SortFunc and the pure slot arithmetic keep the
// arena path allocation-free.
func TestGenEpochSteadyStateZeroAllocs(t *testing.T) {
	for _, kind := range []mac.Kind{mac.KindPure, mac.KindSlotted} {
		t.Run(kind.String(), func(t *testing.T) {
			prev := runner.SetMaxWorkers(1)
			defer runner.SetMaxWorkers(prev)
			c := buildTown(t, 1, 4000, 10*des.Second, false, kind)
			t1 := des.Time(0)
			step := func() {
				t1 += 10 * des.Second
				c.genEpoch(t1)
			}
			for i := 0; i < 30; i++ { // warm the buffers to steady state
				step()
			}
			if avg := testing.AllocsPerRun(10, step); avg != 0 {
				t.Errorf("genEpoch allocates %.1f times per epoch at steady state, want 0", avg)
			}
		})
	}
}

// TestSweepEpochSteadyStateZeroAllocs extends the guard to the whole epoch:
// once the send buffers, cell stores, link-budget memo tables, event heaps
// and the pending window have reached the workload's high-water mark,
// generating and sweeping an epoch on one worker must not allocate — in
// particular sweepEpoch hands the runner its cached closure, not a fresh
// literal boxing the horizon.
func TestSweepEpochSteadyStateZeroAllocs(t *testing.T) {
	for _, cic := range []bool{false, true} {
		t.Run(fmt.Sprintf("cic=%v", cic), func(t *testing.T) {
			prev := runner.SetMaxWorkers(1)
			defer runner.SetMaxWorkers(prev)
			c := buildTown(t, 1, 4000, 10*des.Second, cic, mac.KindPure)
			t1 := des.Time(0)
			step := func() {
				t1 += 10 * des.Second
				c.genEpoch(t1)
				c.processEpoch(t1)
			}
			for i := 0; i < 30; i++ { // warm the buffers to steady state
				step()
			}
			if c.gidNext == 0 || len(c.cells[0].rssi) == 0 {
				t.Fatal("degenerate workload: nothing swept")
			}
			if avg := testing.AllocsPerRun(10, step); avg != 0 {
				t.Errorf("an epoch allocates %.1f times at steady state, want 0", avg)
			}
		})
	}
}

// boundaryCore builds a minimal two-cell scenario: a gateway just inside
// cell B near the shared border, a victim device deeper in cell B, and a
// stronger interferer device just across the border in cell A.
func boundaryCore(cellSize float64) *Core {
	c := New(Config{
		Seed: 7,
		// Zero shadowing makes the capture margins exact.
		Env:   phy.Environment{PL0: 91, D0: 40, Exponent: 3.5, ShadowSigma: 0},
		Width: 1000, Height: 500,
		CellSize:     cellSize,
		MeanInterval: des.Minute,
	})
	ch := []region.Channel{region.Testbed.Channel(0)}
	c.AddGateway(phy.Pt(600, 250), phy.Omni(0), 0, 0x34, ch, 8)
	c.AddDevice(phy.Pt(900, 250), 0, 0x34, ch, lora.DR0, 14) // victim, 300 m from gw
	c.AddDevice(phy.Pt(450, 250), 1, 0x12, ch, lora.DR0, 14) // interferer, 150 m, cell A
	c.Seal()
	return c
}

// inject runs hand-crafted sends through the sweep (white-box), returning
// the per-network outcome stats.
func inject(c *Core, sends []sendRec) ([]metrics.NetworkStats, []bool) {
	c.sends = append(c.sends[:0], sends...)
	c.processEpoch(5 * des.Second)
	c.sends = c.sends[:0]
	c.processEpoch(maxTime)
	return c.stats, c.seen
}

func deviceSend(c *Core, dev int, at des.Time) sendRec {
	a := &c.devs
	return sendRec{
		at: at, dev: int32(dev), ch: c.setTab[a.ChSet[dev]][0],
		dr: a.DR[dev], net: a.Net[dev], sync: a.Sync[dev],
	}
}

// TestBoundaryInterference verifies that a transmission in one cell
// buries a reception in the neighboring cell — the boundary-interference
// export — and that the two-cell grid agrees bit-for-bit with the
// single-cell sweep of the same scenario.
func TestBoundaryInterference(t *testing.T) {
	prev := runner.SetMaxWorkers(1)
	defer runner.SetMaxWorkers(prev)

	// Control: victim alone delivers.
	c := boundaryCore(500)
	if nx, ny := c.Cells(); nx != 2 || ny != 1 {
		t.Fatalf("grid %dx%d, want 2x1", nx, ny)
	}
	stats, _ := inject(c, []sendRec{deviceSend(c, 0, 0)})
	if stats[0].Received != 1 {
		t.Fatalf("control: victim not delivered: %+v", stats[0])
	}

	for _, cellSize := range []float64{500, 1000} {
		c := boundaryCore(cellSize)
		// Interferer starts first and overlaps the victim's preamble with
		// a >6 dB advantage (150 m vs 300 m): the victim's preamble is
		// buried — cross-network channel contention, discovered across
		// the cell boundary.
		stats, seen := inject(c, []sendRec{
			deviceSend(c, 1, 0),
			deviceSend(c, 0, 10*des.Millisecond),
		})
		if !seen[0] || !seen[1] {
			t.Fatalf("cell %.0f: networks unseen", cellSize)
		}
		if got := stats[0]; got.Received != 0 || got.Losses[metrics.ChannelContentionInter] != 1 {
			t.Errorf("cell %.0f: victim outcome = %+v, want 1 inter-network channel-contention loss", cellSize, got)
		}
		// The interferer decodes at the foreign gateway but is filtered by
		// sync word; its own network has no gateway: an "others" loss.
		if got := stats[1]; got.Received != 0 || got.Losses[metrics.Others] != 1 {
			t.Errorf("cell %.0f: interferer outcome = %+v, want 1 others loss", cellSize, got)
		}
	}
}

// TestDecoderContentionAcrossCells drives nine overlapping same-channel
// transmissions at a single-decoder gateway and checks the FCFS decoder
// accounting survives sharding: first locked wins the decoder, the rest
// drop as decoder contention, identically for one and two cells.
func TestDecoderContentionAcrossCells(t *testing.T) {
	prev := runner.SetMaxWorkers(1)
	defer runner.SetMaxWorkers(prev)
	build := func(cellSize float64) *Core {
		c := New(Config{
			Seed:  9,
			Env:   phy.Environment{PL0: 91, D0: 40, Exponent: 3.5, ShadowSigma: 0},
			Width: 1000, Height: 500,
			CellSize:     cellSize,
			MeanInterval: des.Minute,
		})
		ch := []region.Channel{region.Testbed.Channel(3)}
		c.AddGateway(phy.Pt(600, 250), phy.Omni(0), 0, 0x34, ch, 1)
		// Two devices in cell B at equal distance (no burial: equal RSSI),
		// different DRs so the judgement is cross-SF, not a collision.
		c.AddDevice(phy.Pt(700, 250), 0, 0x34, ch, lora.DR2, 14)
		c.AddDevice(phy.Pt(450, 250), 0, 0x34, ch, lora.DR3, 14) // cell A side of the split
		c.Seal()
		return c
	}
	var base []metrics.NetworkStats
	for i, cellSize := range []float64{1000, 500} {
		c := build(cellSize)
		stats, _ := inject(c, []sendRec{
			deviceSend(c, 0, 0),
			deviceSend(c, 1, des.Millisecond),
		})
		if got := stats[0]; got.Received != 1 || got.Losses[metrics.DecoderContentionIntra] != 1 {
			t.Errorf("cell %.0f: stats = %+v, want 1 received + 1 intra decoder-contention", cellSize, got)
		}
		if i == 0 {
			base = append([]metrics.NetworkStats(nil), stats...)
		} else if !reflect.DeepEqual(base, stats) {
			t.Errorf("decoder accounting diverged between grids:\n1 cell: %+v\n2 cells: %+v", base[0], stats[0])
		}
	}
}
