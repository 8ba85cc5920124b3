package experiments

import (
	"sort"

	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// testbedEnv approximates the paper's deployment (Figure 11): urban
// attenuation mild enough that gateways cover large parts of the 2.1 km ×
// 1.6 km area, with moderate shadowing for link diversity.
func testbedEnv(seed int64) phy.Environment {
	e := phy.Urban(seed)
	e.Exponent = 3.2
	e.ShadowSigma = 3
	return e
}

// gwGridPositions returns up to 15 spread gateway positions over the
// testbed area.
func gwGridPositions(n int) []phy.Point {
	var pts []phy.Point
	cols := 5
	for i := 0; i < n; i++ {
		x := 200 + float64(i%cols)*425.0
		y := 200 + float64(i/cols)*600.0
		pts = append(pts, phy.Pt(x, y))
	}
	return pts
}

// buildCity builds the §5.1 testbed: gws spread gateways with standard
// plans on the band, and exactly band.TheoreticalCapacity() nodes spread
// over the area, each assigned a *distinct, link-feasible* (channel, DR)
// pair — "144 COTS LoRa nodes with different channels and orthogonal data
// rates".
func buildCity(seed int64, band region.Band, gws int) (*sim.Network, *sim.Operator) {
	n := sim.New(seed, testbedEnv(seed))
	op := n.AddOperator()
	cfgs := baseline.StandardConfigs(band, gws, op.Sync)
	for i, pos := range gwGridPositions(gws) {
		if _, err := op.AddGateway(cotsModel, pos, cfgs[i]); err != nil {
			panic(err)
		}
	}
	users := band.TheoreticalCapacity()
	op.UniformNodes(users, 2100, 1600, band.AllChannels(), seed)
	assignDistinctPairs(n, op, band)
	return n, op
}

// assignDistinctPairs gives every node a unique (channel, DR) pair that
// its links support: the pair's DR must close the link to at least one
// gateway that (under the standard plan) operates the channel. Weak nodes
// pick first so strong nodes absorb the leftover fast rates.
func assignDistinctPairs(n *sim.Network, op *sim.Operator, band region.Band) {
	env := n.Med.Environment()
	gwCh := make([]map[region.Hz]bool, len(op.Gateways))
	for g, gw := range op.Gateways {
		gwCh[g] = map[region.Hz]bool{}
		for _, ch := range gw.Config().Channels {
			gwCh[g][ch.Center] = true
		}
	}
	// maxDR[i][g]: fastest DR closing node i → gateway g, or -1.
	maxDR := make([][]int, len(op.Nodes))
	best := make([]int, len(op.Nodes)) // node's best reachable DR overall
	for i, nd := range op.Nodes {
		maxDR[i] = make([]int, len(op.Gateways))
		best[i] = -1
		for g, gw := range op.Gateways {
			snr := env.SNRdB(phy.Link{TXPowerDBm: nd.PowerDBm, TXPos: nd.Pos, RXPos: gw.Pos, RXAntenna: phy.Omni(3)})
			if dr, ok := phy.MaxDR(snr, 0); ok {
				maxDR[i][g] = int(dr)
				if int(dr) > best[i] {
					best[i] = int(dr)
				}
			} else {
				maxDR[i][g] = -1
			}
		}
	}
	order := make([]int, len(op.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return best[order[a]] < best[order[b]] })

	used := map[int]bool{} // pair key ch*6+dr
	chans := band.AllChannels()
	for _, i := range order {
		nd := op.Nodes[i]
		assigned := false
		// Prefer the slowest free feasible DR (leave fast pairs for the
		// strong nodes picked later).
		for dr := 0; dr <= 5 && !assigned; dr++ {
			for c, ch := range chans {
				if used[c*6+dr] {
					continue
				}
				// Some gateway operating ch must be reachable at dr.
				ok := false
				for g := range op.Gateways {
					if gwCh[g][ch.Center] && maxDR[i][g] >= dr {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
				nd.Channels = []region.Channel{ch}
				nd.DR = lora.DR(dr)
				used[c*6+dr] = true
				assigned = true
				break
			}
		}
		if !assigned {
			// No free feasible pair: fall back to the node's best link
			// (duplicate settings — it may collide, as in reality).
			nd.DR = lora.DR(max(best[i], 0))
		}
	}
}
