// Package cp models AlphaWAN's intra-network Channel Planning problem
// (§4.3.1): jointly choosing the operating channels of every gateway and
// the channel / data-rate / transmit-power settings of every end node so
// as to minimize the network-wide risk of packet loss from decoder
// contention.
//
// Formally (paper notation): with binary decisions h_jk (gateway j
// operates channel k), f_ik (node i transmits on channel k), and d_il
// (node i uses discrete transmission distance — data rate — l),
//
//	link_ij = 1  iff  Σ_{k,l} r_ijl · h_jk · f_ik · d_il > 0
//	k_j     = Σ_i link_ij · u_i           (load on gateway j's decoders)
//	φ_j     = max(k_j − C_j, 0)           (gateway loss risk)
//	Φ_i     = min_{j : link_ij} φ_j       (node loss risk)
//	minimize Σ_i Φ_i
//
// subject to every node connecting to at least one gateway, at most P_j
// channels per gateway, and a per-gateway frequency span of at most B_j.
// The problem is a Knapsack variant and NP-hard; the evolve package
// searches it with an evolutionary algorithm.
//
// Beyond the paper's objective, the evaluator also penalizes channel
// contention — multiple nodes assigned identical (channel, data-rate)
// settings — so that solutions exploit LoRa's orthogonal data rates fully;
// without it the oracle-capacity experiments of Figure 12 would stall on
// same-setting collisions that the decoder-risk term cannot see.
package cp

import (
	"fmt"
	"math"
	"sync"

	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
)

// GatewaySpec describes one gateway's planning-relevant resources.
type GatewaySpec struct {
	// Decoders is C_j, the decoder-pool size.
	Decoders int
	// MaxChannels is P_j, the number of Rx chains.
	MaxChannels int
	// SpanHz is B_j, the radio's maximal frequency span.
	SpanHz region.Hz
	// FixedChannels, when positive, pins the gateway to exactly this many
	// operating channels (the Strategy-①-disabled evaluation variant).
	FixedChannels int
}

// NodeSpec describes one end node (or an aggregated cluster of nodes with
// identical reachability — the traffic estimator groups users to keep the
// problem tractable at 10k+ user scale).
type NodeSpec struct {
	// Traffic is u_i: the expected number of concurrent packets the node
	// contributes within the planning window (1.0 for a capacity probe).
	Traffic float64
	// MaxDR[j] is the fastest data rate that closes the link to gateway
	// j, or -1 when the gateway is unreachable at any rate. Reachability
	// is nested: a link that closes at DR l also closes at every slower
	// rate (longer range), which compactly encodes r_ijl.
	MaxDR []int
	// Fixed pins the node to (FixedChannel, FixedRing): the solver may
	// not move it. Used by the gateway-side-only planning variant, where
	// end devices keep their current settings.
	Fixed        bool
	FixedChannel int
	FixedRing    int
}

// Problem is one CP instance.
//
// A Problem is immutable once handed to the solver: Evaluate memoizes
// the node↔gateway reachability structure on first use (see
// reachability), so Channels/Gateways/Nodes must not change after the
// first Evaluate call.
type Problem struct {
	Channels []region.Channel
	Gateways []GatewaySpec
	Nodes    []NodeSpec

	reachOnce sync.Once
	reach     *reachIndex
}

// reachEntry is one edge of the reachability structure: a node or
// gateway index paired with the fastest data rate that closes the link.
type reachEntry struct {
	idx   int32
	maxDR int32
}

// reachIndex is the per-Problem memoized reachability structure. MaxDR
// encodes nested rings (a link closing at DR l closes at every slower
// rate), so one (index, maxDR) entry per reachable pair captures the
// whole r_ijl tensor.
type reachIndex struct {
	// gwNodes[j] lists, in ascending node order, every node that reaches
	// gateway j at any rate — the membership universe a gateway's load is
	// recomputed from.
	gwNodes [][]reachEntry
	// nodeGWs[i] lists, in ascending gateway order, every gateway node i
	// reaches — the candidate set of the Φ_i = min_j φ_j scan.
	nodeGWs [][]reachEntry
	// traffic is a dense copy of NodeSpec.Traffic (the NodeSpec stride is
	// cache-hostile on the load inner loop).
	traffic []float64
}

// reachability builds (once) and returns the memoized index. Safe for
// concurrent use: the GA's parallel fitness workers all evaluate the
// same Problem.
func (p *Problem) reachability() *reachIndex {
	p.reachOnce.Do(func() {
		r := &reachIndex{
			gwNodes: make([][]reachEntry, len(p.Gateways)),
			nodeGWs: make([][]reachEntry, len(p.Nodes)),
			traffic: make([]float64, len(p.Nodes)),
		}
		for i := range p.Nodes {
			n := &p.Nodes[i]
			r.traffic[i] = n.Traffic
			for j, m := range n.MaxDR {
				if m < 0 {
					continue
				}
				r.gwNodes[j] = append(r.gwNodes[j], reachEntry{idx: int32(i), maxDR: int32(m)})
				r.nodeGWs[i] = append(r.nodeGWs[i], reachEntry{idx: int32(j), maxDR: int32(m)})
			}
		}
		p.reach = r
	})
	return p.reach
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if len(p.Channels) == 0 || len(p.Gateways) == 0 {
		return fmt.Errorf("cp: need at least one channel and one gateway")
	}
	for i, n := range p.Nodes {
		if len(n.MaxDR) != len(p.Gateways) {
			return fmt.Errorf("cp: node %d has %d reach entries, want %d",
				i, len(n.MaxDR), len(p.Gateways))
		}
	}
	return nil
}

// Assignment is one candidate solution.
type Assignment struct {
	// GWChannels[j] lists the channel indices gateway j operates.
	GWChannels [][]int
	// NodeChannel[i] is the channel index node i transmits on.
	NodeChannel []int
	// NodeRing[i] is node i's data rate (transmission distance d_il),
	// never negative.
	NodeRing []int
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		GWChannels:  make([][]int, len(a.GWChannels)),
		NodeChannel: append([]int{}, a.NodeChannel...),
		NodeRing:    append([]int{}, a.NodeRing...),
	}
	for j, chs := range a.GWChannels {
		c.GWChannels[j] = append([]int{}, chs...)
	}
	return c
}

// Gene identifies one decision variable of an Assignment: either a
// node's (channel, ring) pair or a gateway's channel set. It is the
// vocabulary of a plan diff — adaptive lists the genes a replan changes
// and pushes them to the network in that order. Node genes are the node
// index; gateway genes are the bitwise complement of the gateway index,
// so the two ranges never collide and a Gene packs into one machine word.
type Gene int32

// NodeGene returns the gene for node i's (channel, ring) setting.
func NodeGene(i int) Gene { return Gene(i) }

// GWGene returns the gene for gateway j's channel set.
func GWGene(j int) Gene { return Gene(^j) }

// IsNode reports whether the gene is a node gene.
func (g Gene) IsNode() bool { return g >= 0 }

// Index returns the node index (node genes) or gateway index (gateway
// genes) the gene addresses.
func (g Gene) Index() int {
	if g >= 0 {
		return int(g)
	}
	return int(^g)
}

// Validate checks that the assignment is structurally sound for the
// problem and satisfies the hard radio constraints: dimensions match,
// every node gene lies inside the (channel, ring) grid, and no gateway's
// channel set violates its chain-count, span, or fixed-size constraint.
// The online replanner refuses to adopt a candidate that fails this
// check, whatever its score.
func (a *Assignment) Validate(p *Problem) error {
	if len(p.Channels) > 64 {
		return fmt.Errorf("cp: more than 64 channels not supported")
	}
	if len(a.GWChannels) != len(p.Gateways) {
		return fmt.Errorf("cp: assignment covers %d gateways, problem has %d",
			len(a.GWChannels), len(p.Gateways))
	}
	if len(a.NodeChannel) != len(p.Nodes) || len(a.NodeRing) != len(p.Nodes) {
		return fmt.Errorf("cp: assignment covers %d/%d node genes, problem has %d nodes",
			len(a.NodeChannel), len(a.NodeRing), len(p.Nodes))
	}
	for i, ch := range a.NodeChannel {
		if ch < 0 || ch >= len(p.Channels) {
			return fmt.Errorf("cp: node %d on channel %d, universe has %d",
				i, ch, len(p.Channels))
		}
		if ring := a.NodeRing[i]; ring < 0 || ring >= lora.NumDRs {
			return fmt.Errorf("cp: node %d on ring %d, want [0, %d)", i, ring, lora.NumDRs)
		}
	}
	sv := 0
	for j, set := range a.GWChannels {
		if _, bad := p.operatedMask(j, set); bad {
			sv++
		}
	}
	if sv > 0 {
		return fmt.Errorf("cp: %d gateway channel sets violate radio constraints", sv)
	}
	return nil
}

// Cost breaks a solution's badness into its components.
type Cost struct {
	// DecoderRisk is Σ_i Φ_i — the paper's objective.
	DecoderRisk float64
	// Unconnected counts nodes violating the connectivity constraint.
	Unconnected int
	// ChannelOverload sums, over (channel, DR) pairs, the traffic beyond
	// the single concurrent packet the pair can carry.
	ChannelOverload float64
	// SpanViolations counts gateways whose channel set breaks the radio
	// constraints (repaired solutions should have zero).
	SpanViolations int
}

// Weights when folding a Cost into one scalar: the connectivity constraint
// dominates, then the radio constraints, then the paper's objective, then
// the channel-contention tiebreaker.
const (
	wUnconnected = 1e7
	wSpan        = 1e6
	wDecoder     = 1e2
	// Overloaded (channel, DR) pairs are *certain* collisions, while a
	// decoder-risk unit is a potential loss, so overload weighs heavier.
	wOverload = 2e2
)

// Total folds the cost into a single minimization objective.
func (c Cost) Total() float64 {
	return wUnconnected*float64(c.Unconnected) +
		wSpan*float64(c.SpanViolations) +
		wDecoder*c.DecoderRisk +
		wOverload*c.ChannelOverload
}

// Feasible reports whether all hard constraints hold.
func (c Cost) Feasible() bool { return c.Unconnected == 0 && c.SpanViolations == 0 }

// Evaluate computes the cost of an assignment.
//
// It sits on the GA's innermost loop (one call per candidate per
// generation, across the parallel fitness workers), so it makes exactly
// two short-lived allocations and no map operations on the common path:
// the float scratch — gateway loads, gateway risks, and the dense
// (channel, DR) traffic grid — comes from a single make, sized by the
// ≤64-channel bound the bitmask representation already imposes. It
// remains safe to call concurrently on one Problem.
//
// Loads and node risks walk the memoized reachability index instead of
// scanning every (node, gateway) pair; membership lists are stored in
// ascending index order, so every floating-point accumulation happens in
// exactly the same canonical order as a dense scan of all pairs (the
// tests' oracle) and the returned Cost is bit-identical to it. Rings
// must be non-negative (Assignment.Validate's contract): the index holds
// only reachable pairs, which is every pair a ring ≥ 0 can link.
func (p *Problem) Evaluate(a *Assignment) Cost {
	var cost Cost
	nGW := len(p.Gateways)
	r := p.reachability()

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

	// Gateway loads k_j, each accumulated over the gateway's membership
	// list in ascending node order.
	loads := scratch[:nGW]
	for j := 0; j < nGW; j++ {
		m := operated[j]
		if m == 0 {
			continue
		}
		load := 0.0
		for _, e := range r.gwNodes[j] {
			i := e.idx
			if int(e.maxDR) >= a.NodeRing[i] && m&(1<<uint(a.NodeChannel[i])) != 0 {
				load += r.traffic[i]
			}
		}
		loads[j] = load
	}

	// Risks φ_j and node risks Φ_i.
	risks := scratch[nGW : 2*nGW]
	for j, k := range loads {
		if over := k - float64(p.Gateways[j].Decoders); over > 0 {
			risks[j] = over
		}
	}
	for i := range p.Nodes {
		ch, ring := a.NodeChannel[i], a.NodeRing[i]
		best := math.Inf(1)
		for _, e := range r.nodeGWs[i] {
			if int(e.maxDR) >= ring && operated[e.idx]&(1<<uint(ch)) != 0 && risks[e.idx] < best {
				best = risks[e.idx]
			}
		}
		if math.IsInf(best, 1) {
			cost.Unconnected++
			continue
		}
		cost.DecoderRisk += best * r.traffic[i]
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
			pair[key] += r.traffic[i]
		} else {
			if spill == nil {
				spill = make(map[int]float64)
			}
			spill[key] += r.traffic[i]
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

// operatedMask is the radio-constraint check, the only one: it returns
// the channel bitmask of set as gateway j's operating channels, or
// (0, true) when the set breaks the gateway's chain-count, fixed-size or
// span constraint or names a channel outside the universe. Evaluate,
// Validate and the test oracle all call it.
func (p *Problem) operatedMask(j int, set []int) (mask uint64, bad bool) {
	g := p.Gateways[j]
	if len(set) == 0 || len(set) > g.MaxChannels ||
		(g.FixedChannels > 0 && len(set) != g.FixedChannels) {
		return 0, true
	}
	lo, hi := region.Hz(math.MaxInt64), region.Hz(math.MinInt64)
	for _, k := range set {
		if k < 0 || k >= len(p.Channels) {
			return 0, true
		}
		mask |= 1 << uint(k)
		if l := p.Channels[k].Low(); l < lo {
			lo = l
		}
		if h := p.Channels[k].High(); h > hi {
			hi = h
		}
	}
	if hi-lo > g.SpanHz {
		return 0, true
	}
	return mask, false
}

// TheoreticalCapacity returns the oracle concurrent-user bound of the
// instance's spectrum: channels × data rates.
func (p *Problem) TheoreticalCapacity() int { return len(p.Channels) * lora.NumDRs }

// DecoderBound returns the total decoder budget across gateways — the
// other ceiling on concurrent receptions.
func (p *Problem) DecoderBound() int {
	total := 0
	for _, g := range p.Gateways {
		total += g.Decoders
	}
	return total
}
