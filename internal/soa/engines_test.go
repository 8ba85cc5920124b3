package soa

import (
	"math"
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
	"github.com/alphawan/alphawan/internal/traffic"
)

// verdict is one transmission's network-wide outcome, in either engine.
type verdict struct {
	received bool
	cause    metrics.Cause // meaningful only when !received
}

// enginesGateway is one gateway of the differential scenario.
type enginesGateway struct {
	pos   phy.Point
	net   medium.NetworkID
	sync  lora.SyncWord
	chans []region.Channel
}

const (
	enginesSeed = 5
	enginesSide = 6000.0 // wide enough that some interferers arrive sub-floor
)

// enginesChipset has few enough decoders for the scenario's load to
// contend for them.
var enginesChipset = radio.Chipset{Name: "3-decoder", RxChains: 8, Decoders: 3, SpanHz: 1_600_000}

// enginesWorld builds the differential scenario: two co-located operators
// on the same four channels, except that half of operator 1's devices and
// two of its three gateways sit on a plan shifted by 40% of the bandwidth —
// undetectable to the aligned radios, but still interfering with them.
func enginesWorld() ([]*node.Node, []enginesGateway) {
	aligned := region.Testbed.SubBand(0, 4).AllChannels()
	shifted := make([]region.Channel, len(aligned))
	for i, ch := range aligned {
		ch.Center += region.Hz(0.4 * float64(ch.Bandwidth))
		shifted[i] = ch
	}
	gws := []enginesGateway{
		{phy.Pt(1500, 1500), 0, 0x34, aligned},
		{phy.Pt(4500, 4500), 0, 0x34, aligned},
		{phy.Pt(3000, 3000), 0, 0x34, aligned},
		{phy.Pt(4500, 1500), 1, 0x12, aligned},
		{phy.Pt(1500, 4500), 1, 0x12, shifted},
		{phy.Pt(3200, 2800), 1, 0x12, shifted},
	}
	var nodes []*node.Node
	for i, pt := range traffic.JitterPositions(600, enginesSide, enginesSide, enginesSeed) {
		n := node.New(medium.NodeID(i), medium.NetworkID(i%2), gws[3*(i%2)].sync, phy.Pt(pt.X, pt.Y))
		n.DR = lora.DR((i / 2) % lora.NumDRs)
		n.Channels = aligned
		if i%4 == 3 {
			n.Channels = shifted
		}
		nodes = append(nodes, n)
	}
	return nodes, gws
}

// soaVerdicts freezes a fresh world into a one-cell core, generates the
// arena's schedule, sweeps it, and returns the schedule together with the
// per-transmission verdicts (indexed by global transmission id).
func soaVerdicts(rule medium.Rule) (*Core, []sendRec, []verdict) {
	nodes, gws := enginesWorld()
	c := New(Config{
		Seed: enginesSeed, Env: phy.Urban(enginesSeed),
		Width: enginesSide, Height: enginesSide, CellSize: enginesSide,
		MeanInterval:      20 * des.Second,
		ResolveCollisions: rule.ResolveCollisions,
		Capture:           rule.Capture,
	})
	c.FromNodes(nodes)
	for _, g := range gws {
		c.AddGateway(g.pos, phy.Omni(3), g.net, g.sync, g.chans, enginesChipset.Decoders)
	}
	c.Seal()

	var sends []sendRec
	const window = 3 * des.Minute
	for t1 := c.cfg.Epoch; t1 <= window; t1 += c.cfg.Epoch {
		c.genEpoch(t1)
		sends = append(sends, c.sends...)
	}
	c.sends = sends
	c.sweepEpoch(maxTime)
	out := make([]verdict, len(c.pend))
	for i, p := range c.pend {
		out[i] = verdict{received: p.delivered > 0}
		if !out[i].received {
			out[i].cause = causeForPrec(p.prec)
		}
	}
	return c, sends, out
}

// nodeVerdicts replays the schedule through real nodes on a real medium
// with real radios and returns the metrics.Collector's per-transmission
// outcomes. c supplies the arena's view of each send for cross-checking.
func nodeVerdicts(t *testing.T, c *Core, sends []sendRec, rule medium.Rule) []verdict {
	t.Helper()
	nodes, gws := enginesWorld()
	sim := des.New(enginesSeed)
	med := medium.New(sim, phy.Urban(enginesSeed))
	med.Rule = rule
	for _, g := range gws {
		r, err := radio.New(sim, enginesChipset, radio.Config{Channels: g.chans, Sync: g.sync})
		if err != nil {
			t.Fatal(err)
		}
		med.WirePort(med.Attach(r, g.pos, phy.Omni(3)))
	}
	out := make([]verdict, len(sends))
	metrics.NewCollector(med).Outcomes.Subscribe(func(o metrics.Outcome) {
		out[o.TX.ID] = verdict{o.Received, o.Cause} // Cause is zero when received
	})
	for i, s := range sends {
		i, s := i, s
		sim.At(s.at, func() {
			tx, err := nodes[s.dev].Send(med)
			if err != nil {
				t.Fatalf("send %d (node %d): %v", i, s.dev, err)
			}
			if tx.ID != int64(i) || tx.Channel != c.chanTab[s.ch] || tx.DR != lora.DR(s.dr) ||
				tx.LockOn-tx.Start != c.pre[s.dr] || tx.End-tx.Start != c.air[s.dr] {
				t.Fatalf("send %d: node transmitted %+v, arena scheduled %+v", i, tx, s)
			}
		})
	}
	sim.Run()
	return out
}

// TestEnginesAgreeOnVerdicts is the cross-engine differential: one frozen
// two-operator population, one schedule, judged once by the object-graph
// engine (node → medium → radio → metrics.Collector) and once by a one-cell
// soa.Core. With the interference floor out of the way the two must agree
// on every transmission — received or lost, and to which cause — under the
// classic capture rule, CIC, and the Curving capture model. The floor is
// then restored and the verdicts it changes are counted (DESIGN §13 quotes
// the numbers).
func TestEnginesAgreeOnVerdicts(t *testing.T) {
	prevW := runner.SetMaxWorkers(1)
	defer runner.SetMaxWorkers(prevW)
	floor := InterferenceFloorDBm
	defer func() { InterferenceFloorDBm = floor }()

	for _, tc := range []struct {
		name string
		rule medium.Rule
	}{
		{"classic", medium.Rule{}},
		{"cic", medium.Rule{ResolveCollisions: true}},
		{"curving", medium.Rule{Capture: mac.NewCurving()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			InterferenceFloorDBm = math.Inf(-1)
			c, sends, got := soaVerdicts(tc.rule)
			want := nodeVerdicts(t, c, sends, tc.rule)

			var tally [metrics.Others + 2]int
			bad := 0
			for i := range want {
				if want[i].received {
					tally[0]++
				} else {
					tally[1+want[i].cause]++
				}
				if got[i] != want[i] {
					if bad++; bad <= 10 {
						t.Errorf("tx %d (%+v): soa %+v, medium %+v", i, sends[i], got[i], want[i])
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d verdicts disagree", bad, len(want))
			}
			// The agreement must not be vacuous: every outcome class occurs.
			for k, n := range tally {
				if n == 0 {
					t.Errorf("scenario never produced outcome class %d (tally %v)", k, tally)
				}
			}

			InterferenceFloorDBm = floor
			_, floored, withFloor := soaVerdicts(tc.rule)
			if len(floored) != len(sends) {
				t.Fatalf("the floor changed the schedule: %d sends vs %d", len(floored), len(sends))
			}
			changed := 0
			for i := range withFloor {
				if withFloor[i] != got[i] {
					changed++
				}
			}
			t.Logf("%d transmissions (received %d; lost decoder intra/inter %d/%d, channel intra/inter %d/%d, others %d); "+
				"InterferenceFloorDBm changes %d verdicts",
				len(want), tally[0],
				tally[1+metrics.DecoderContentionIntra], tally[1+metrics.DecoderContentionInter],
				tally[1+metrics.ChannelContentionIntra], tally[1+metrics.ChannelContentionInter],
				tally[1+metrics.Others], changed)
		})
	}
}
