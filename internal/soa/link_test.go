package soa

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/traffic"
)

// TestLinkBudgetMemoMatchesDirect sweeps a multi-cell town epoch by epoch
// and, after every epoch's compaction, holds each filled slot of each
// cell's memo to the bits of a fresh rssiAt for that row's device and that
// column's port — a row that compactCell moved with the wrong stride, or
// left behind, reads another link's budget. The evaluation hook counts per
// cell: no (transmission, port) pair is ever budgeted twice, so a moved row
// also keeps what it already knew.
func TestLinkBudgetMemoMatchesDirect(t *testing.T) {
	for _, cic := range []bool{false, true} {
		t.Run(fmt.Sprintf("cic=%v", cic), func(t *testing.T) {
			c := buildTown(t, 1, 700, 10*des.Second, cic, mac.KindPure)
			// One tally per cell: a cell is swept by one worker at a time.
			evals := make([]map[[2]int64]int, len(c.cells))
			for i := range evals {
				evals[i] = make(map[[2]int64]int)
			}
			c.onBudget = func(cs *cellState, ti int32, p *portState) {
				evals[p.cell][[2]int64{cs.store[ti].gid, int64(p.slot)}]++
			}

			filled, compacted := 0, false
			for t1 := c.cfg.Epoch; t1 <= 2*des.Minute; t1 += c.cfg.Epoch {
				c.genEpoch(t1)
				c.processEpoch(t1)
				for ci := range c.cells {
					cs := &c.cells[ci]
					np := len(cs.ports)
					if len(cs.rssi) != len(cs.store)*np {
						t.Fatalf("cell %d: memo holds %d slots for %d rows × %d ports", ci, len(cs.rssi), len(cs.store), np)
					}
					if len(cs.store) > 0 && cs.store[0].start > c.cfg.Epoch {
						compacted = true
					}
					for ti := range cs.store {
						for slot, pi := range cs.ports {
							got := cs.rssi[ti*np+slot]
							if math.IsNaN(got) {
								continue
							}
							filled++
							want := c.rssiAt(cs.store[ti].dev, &c.ports[pi])
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("cell %d row %d (gid %d) port %d: memo %v, direct %v",
									ci, ti, cs.store[ti].gid, pi, got, want)
							}
						}
					}
				}
			}
			c.sends = c.sends[:0]
			c.processEpoch(maxTime)

			if filled == 0 || !compacted {
				t.Fatalf("vacuous: %d filled slots checked, compaction ran: %v", filled, compacted)
			}
			pairs := 0
			for ci, m := range evals {
				for k, n := range m {
					pairs++
					if n != 1 {
						t.Errorf("cell %d: transmission %d budgeted %d times at port slot %d", ci, k[0], n, k[1])
					}
				}
			}
			t.Logf("%d transmissions, %d link budgets (%.1f per transmission), %d memo slots verified",
				c.gidNext, pairs, float64(pairs)/float64(c.gidNext), filled)
		})
	}
}

// TestDistanceGatesAreSound checks the claim Core.link's gates rest on:
// beyond a gate's radius no link of the deployment reaches that gate's
// floor, whatever its shadow draw — under the clamped Metro profile, under
// Urban's unclamped draw (bounded only by the 7.43 σ Box-Muller guard) and
// with a directional port raising the maximum antenna gain. The devices
// spread far enough that every gate has links beyond it.
func TestDistanceGatesAreSound(t *testing.T) {
	ch := []region.Channel{region.Testbed.Channel(0)}
	build := func(env phy.Environment, side float64, ant phy.Antenna) *Core {
		c := New(Config{
			Seed: 3, Env: env, Width: side, Height: side,
			CellSize: side / 4, MeanInterval: des.Minute,
		})
		c.AddGateway(phy.Pt(side/2, side/2), ant, 0, 0x34, ch, 8)
		c.AddGateway(phy.Pt(side/8, side/3), phy.Omni(3), 0, 0x34, ch, 8)
		for i, pt := range traffic.JitterPositions(4000, side, side, 3) {
			c.AddDevice(phy.Pt(pt.X, pt.Y), 0, 0x34, ch, lora.DR(i%lora.NumDRs), 14-2*float64(i%4))
		}
		c.Seal()
		return c
	}
	for _, tc := range []struct {
		name string
		env  phy.Environment
		side float64
		ant  phy.Antenna
	}{
		{"metro", phy.Metro(3), 12_000, phy.Omni(3)},
		{"urban-unclamped", phy.Urban(3), 120_000, phy.Omni(3)},
		{"metro-directional", phy.Metro(3), 20_000, phy.Directional12dBi(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := build(tc.env, tc.side, tc.ant)
			var beyond [1 + lora.NumDRs]int
			for pi := range c.ports {
				p := &c.ports[pi]
				for d := 0; d < c.devs.Len(); d++ {
					dx, dy := c.devs.X[d]-p.pos.X, c.devs.Y[d]-p.pos.Y
					d2 := dx*dx + dy*dy
					rssi := c.rssiAt(int32(d), p)
					if d2 > c.floorR2 {
						beyond[0]++
						if !(rssi < InterferenceFloorDBm) {
							t.Errorf("device %d → port %d at %.0f m: %.2f dBm clears the interference floor beyond its gate (%.0f m)",
								d, pi, math.Sqrt(d2), rssi, math.Sqrt(c.floorR2))
						}
					}
					for dr, r2 := range c.lockR2 {
						if d2 > r2 {
							beyond[1+dr]++
							if !(rssi-c.noiseDBm < c.demod[dr]) {
								t.Errorf("device %d → port %d at %.0f m: SNR %.2f dB locks on at DR%d beyond its gate (%.0f m)",
									d, pi, math.Sqrt(d2), rssi-c.noiseDBm, dr, math.Sqrt(r2))
							}
						}
					}
				}
			}
			for g, n := range beyond {
				if n == 0 {
					t.Errorf("gate %d has no link beyond it (floor radius %.0f m, area %.0f m): the check is vacuous",
						g, math.Sqrt(c.floorR2), tc.side)
				}
			}
		})
	}

	// Without distance attenuation there is no reach to bound: the gates
	// must stay open rather than close at some arbitrary radius.
	c := build(phy.Environment{PL0: 91, D0: 40, Exponent: 0, ShadowSigma: 4}, 4000, phy.Omni(3))
	if !math.IsInf(c.floorR2, 1) {
		t.Errorf("zero path-loss exponent: interference gate at %v m², want +Inf", c.floorR2)
	}
	for dr, r2 := range c.lockR2 {
		if !math.IsInf(r2, 1) {
			t.Errorf("zero path-loss exponent: DR%d lock-on gate at %v m², want +Inf", dr, r2)
		}
	}
}

// BenchmarkSweepEpoch isolates the soa reception layer the way
// BenchmarkMediumJudge isolates the node engine's: steady-state epochs of
// the two-operator town on one worker, one epoch per op. Only processEpoch
// (fan-out, cell sweeps, merge, finalize) counts towards tx/s; budgets/tx
// is the number of link budgets actually evaluated per transmission.
func BenchmarkSweepEpoch(b *testing.B) {
	prev := runner.SetMaxWorkers(1)
	defer runner.SetMaxWorkers(prev)
	c := buildTown(b, 1, 700, 10*des.Second, true, mac.KindPure)
	budgets := 0
	c.onBudget = func(*cellState, int32, *portState) { budgets++ }
	t1 := des.Time(0)
	var sweep time.Duration
	step := func() {
		t1 += c.cfg.Epoch
		c.genEpoch(t1)
		start := time.Now()
		c.processEpoch(t1)
		sweep += time.Since(start)
	}
	for i := 0; i < 30; i++ { // reach the steady-state store and buffer sizes
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	tx0 := c.gidNext
	budgets, sweep = 0, 0
	for i := 0; i < b.N; i++ {
		step()
	}
	tx := float64(c.gidNext - tx0)
	b.ReportMetric(tx/sweep.Seconds(), "tx/s")
	b.ReportMetric(float64(budgets)/tx, "budgets/tx")
}
