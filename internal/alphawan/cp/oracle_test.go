package cp

import (
	"math"

	"github.com/alphawan/alphawan/internal/lora"
)

// evaluateRef is the dense O(nodes × gateways) evaluator the memoized
// Evaluate replaced, kept as the oracle of the differential tests: it
// reads NodeSpec.MaxDR and Traffic directly, never the reachability
// index, so it checks the index as well as the arithmetic. It shares
// only the per-gateway radio check (operatedMask) with production code.
func (p *Problem) evaluateRef(a *Assignment) Cost {
	var cost Cost
	nGW := len(p.Gateways)

	// Gateway channel sets → bitmask per gateway for O(1) membership, and
	// radio-constraint checks.
	operated := make([]uint64, nGW) // supports ≤64 channels; guarded below
	if len(p.Channels) > 64 {
		panic("cp: more than 64 channels not supported")
	}
	nPair := len(p.Channels) * lora.NumDRs
	scratch := make([]float64, 2*nGW+nPair)
	for j := range p.Gateways {
		var bad bool
		if operated[j], bad = p.operatedMask(j, a.GWChannels[j]); bad {
			cost.SpanViolations++
		}
	}

	// Gateway loads k_j.
	loads := scratch[:nGW]
	for i := range p.Nodes {
		n := &p.Nodes[i]
		ch, ring := a.NodeChannel[i], a.NodeRing[i]
		for j := 0; j < nGW; j++ {
			if n.MaxDR[j] >= ring && operated[j]&(1<<uint(ch)) != 0 {
				loads[j] += n.Traffic
			}
		}
	}

	// Risks φ_j and node risks Φ_i.
	risks := scratch[nGW : 2*nGW]
	for j, k := range loads {
		if over := k - float64(p.Gateways[j].Decoders); over > 0 {
			risks[j] = over
		}
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		ch, ring := a.NodeChannel[i], a.NodeRing[i]
		best := math.Inf(1)
		for j := 0; j < nGW; j++ {
			if n.MaxDR[j] >= ring && operated[j]&(1<<uint(ch)) != 0 && risks[j] < best {
				best = risks[j]
			}
		}
		if math.IsInf(best, 1) {
			cost.Unconnected++
			continue
		}
		cost.DecoderRisk += best * n.Traffic
	}

	// Channel contention: traffic beyond one concurrent packet per
	// (channel, DR) pair, accumulated on the dense grid. Assignments with
	// settings outside the grid (un-repaired mutants) spill to a lazily
	// allocated map so their overload still counts.
	pair := scratch[2*nGW:]
	var spill map[int]float64
	for i := range p.Nodes {
		key := a.NodeChannel[i]*lora.NumDRs + a.NodeRing[i]
		if uint(key) < uint(len(pair)) {
			pair[key] += p.Nodes[i].Traffic
		} else {
			if spill == nil {
				spill = make(map[int]float64)
			}
			spill[key] += p.Nodes[i].Traffic
		}
	}
	for _, m := range pair {
		if m > 1 {
			cost.ChannelOverload += m - 1
		}
	}
	for _, m := range spill {
		if m > 1 {
			cost.ChannelOverload += m - 1
		}
	}
	return cost
}
