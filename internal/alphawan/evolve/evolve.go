// Package evolve searches the NP-hard Channel Planning problem with an
// evolutionary algorithm, the approach the paper runs on a central server
// (§4.3.1: "AlphaWAN runs an evolutionary algorithm on a central server to
// search for approximate solutions").
//
// The solver combines a greedy constructive seed (heterogeneous contiguous
// channel blocks per gateway, load-balanced node placement) with tournament
// selection, uniform crossover, and domain-specific mutations:
//
//   - re-blocking a gateway's channels (Strategy ② heterogeneity),
//   - resizing a gateway's channel count (Strategy ① decoder focusing),
//   - moving a node to another channel/data-rate, possibly onto a farther,
//     less-loaded gateway (Strategy ⑦ contention management).
//
// Fitness evaluation is pure, so the population evaluates in parallel
// across CPU cores while staying bit-for-bit deterministic for a given
// seed.
package evolve

import (
	"math/rand"
	"sort"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/runner"
)

// Options tunes the solver.
type Options struct {
	// Population and Generations bound the search effort.
	Population  int
	Generations int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// TournamentK is the tournament selection size.
	TournamentK int
	// Elitism preserves the best individuals each generation.
	Elitism int
	// Seed makes the run deterministic.
	Seed int64
	// Parallel evaluates fitness across CPU cores (default true).
	Parallel bool
	// Patience stops early after this many generations without
	// improvement (0 = run all generations).
	Patience int
	// ExactPolish prices the final hill-climb's candidate moves with the
	// incremental Scorer — the real objective — instead of the legacy
	// surrogate. It usually polishes deeper, but its decision trajectory
	// differs from the surrogate's, so it stays opt-in: the default
	// surrogate's byte-exact outputs are pinned by the experiment
	// regression suite.
	ExactPolish bool
	// WarmStart, when non-nil, seeds the population with this assignment
	// (cloned) instead of making the greedy constructive seed slot 0: the
	// online replanner warm-starts the search from the live incumbent
	// plan, so small repairs are found in few generations. The greedy
	// seed stays in the race at slot 1. Dimensions must match the
	// problem. Nil leaves the seeding — and the whole RNG draw
	// sequence — byte-identical to the original solver.
	WarmStart *cp.Assignment
}

// DefaultOptions returns solver settings sized for the paper's scales
// (12 gateways / 12k users solve in ≈1 s, Figure 17a).
func DefaultOptions(seed int64) Options {
	return Options{
		Population:   64,
		Generations:  120,
		MutationRate: 0.15,
		TournamentK:  3,
		Elitism:      4,
		Seed:         seed,
		Parallel:     true,
		Patience:     30,
	}
}

// SolveStats counts how candidates were scored. The counts are taken
// serially (before the parallel fitness fan-out), so they are
// deterministic for a given seed regardless of worker count.
type SolveStats struct {
	// FullEvals counts full Evaluate calls.
	FullEvals int
	// Rescores is always 0: the GA scores every child with a full
	// Evaluate (a child's gene diff against its parent is never small
	// enough for cp.Scorer's incremental replay to win). The field stays
	// because the benchmark reads it.
	Rescores int
	// EliteCarries counts elite individuals whose known cost was carried
	// through a generation without re-evaluation.
	EliteCarries int
}

// Result is the solver outcome.
type Result struct {
	Assignment  *cp.Assignment
	Cost        cp.Cost
	Generations int
	// SeededCost is the greedy seed's cost, for ablation studies.
	SeededCost cp.Cost
	// Stats breaks down how candidates were scored.
	Stats SolveStats
}

// Solve searches the problem and returns the best assignment found.
func Solve(p *cp.Problem, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Population < 2 {
		opt.Population = 2
	}
	if opt.TournamentK < 1 {
		opt.TournamentK = 1
	}
	if opt.Elitism >= opt.Population {
		opt.Elitism = opt.Population / 2
	}
	s := &solver{p: p, opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
	return s.run(), nil
}

type solver struct {
	p   *cp.Problem
	opt Options
	rng *rand.Rand

	stats SolveStats

	// localSearch scratch, reused across the hill-climb's inner loop so
	// link enumeration stays allocation-free.
	lsCur []int
	lsTmp []int
}

type indiv struct {
	a    *cp.Assignment
	cost cp.Cost
	// scored marks the cost as already known (carried elites), so
	// evalAll skips the slot entirely.
	scored bool
}

func (s *solver) run() *Result {
	pop := make([]indiv, s.opt.Population)
	pop[0] = indiv{a: s.greedySeed()}
	start := 1
	if ws := s.opt.WarmStart; ws != nil {
		// The incumbent takes slot 0 — the slot whose mutated copies seed
		// a quarter of the population — so the search explores around the
		// live plan; the greedy constructive seed stays in the race at
		// slot 1. Neither seed draws RNG, so the nil path is untouched.
		pop[1] = indiv{a: pop[0].a}
		pop[0] = indiv{a: ws.Clone()}
		start = 2
	}
	for i := start; i < len(pop); i++ {
		if i < len(pop)/4 {
			// A few mutated copies of the seed.
			a := pop[0].a.Clone()
			s.mutate(a, 4*s.opt.MutationRate)
			pop[i] = indiv{a: a}
		} else {
			pop[i] = indiv{a: s.randomAssignment()}
		}
	}
	s.evalAll(pop)
	seedCost := pop[0].cost
	sortPop(pop)

	best := indiv{a: pop[0].a.Clone(), cost: pop[0].cost}
	sinceImprove := 0
	gens := 0
	for g := 0; g < s.opt.Generations; g++ {
		gens = g + 1
		next := make([]indiv, 0, len(pop))
		for e := 0; e < s.opt.Elitism && e < len(pop); e++ {
			// Elites carry their known cost through the generation;
			// evalAll skips them. Assignments are never mutated in place —
			// children clone their parents — so the carried pointer is
			// safe to share.
			next = append(next, indiv{a: pop[e].a, cost: pop[e].cost, scored: true})
		}
		for len(next) < len(pop) {
			pa := s.tournament(pop)
			pb := s.tournament(pop)
			child := s.crossover(pa, pb)
			s.mutate(child, s.opt.MutationRate)
			s.repair(child)
			next = append(next, indiv{a: child})
		}
		s.evalAll(next)
		sortPop(next)
		pop = next
		if pop[0].cost.Total() < best.cost.Total() {
			best = indiv{a: pop[0].a.Clone(), cost: pop[0].cost}
			sinceImprove = 0
		} else {
			sinceImprove++
			if s.opt.Patience > 0 && sinceImprove >= s.opt.Patience {
				break
			}
		}
	}
	// Polish the winner with incremental local search, then re-score with
	// the exact objective.
	s.localSearch(best.a)
	best.cost = s.p.Evaluate(best.a)
	return &Result{
		Assignment:  best.a,
		Cost:        best.cost,
		Generations: gens,
		SeededCost:  seedCost,
		Stats:       s.stats,
	}
}

// localSearch hill-climbs node genes under a surrogate objective that is
// incrementally computable: total gateway overload Σ_j max(k_j − C_j, 0)
// plus (channel, DR) pair overload. Both terms hit zero exactly when the
// paper's objective and the contention tiebreaker do, and a node move
// touches only its own linked gateways, so each step is O(channels ×
// rings) instead of a full re-evaluation.
func (s *solver) localSearch(a *cp.Assignment) {
	if s.opt.ExactPolish {
		s.exactPolish(a)
		return
	}
	nGW := len(s.p.Gateways)
	operatedBy := make([][]int, len(s.p.Channels)) // channel → gateways
	for j := 0; j < nGW; j++ {
		for _, k := range a.GWChannels[j] {
			operatedBy[k] = append(operatedBy[k], j)
		}
	}
	loads := make([]float64, nGW)
	pairLoad := make(map[int]float64)
	// links fills the given scratch slice (reused across the whole
	// hill-climb) instead of allocating per call; two scratches exist
	// because the current placement's link list must survive the price
	// probes of every candidate placement.
	links := func(i, ch, ring int, out []int) []int {
		out = out[:0]
		for _, j := range operatedBy[ch] {
			if s.p.Nodes[i].MaxDR[j] >= ring {
				out = append(out, j)
			}
		}
		return out
	}
	for i := range s.p.Nodes {
		s.lsTmp = links(i, a.NodeChannel[i], a.NodeRing[i], s.lsTmp)
		for _, j := range s.lsTmp {
			loads[j] += s.p.Nodes[i].Traffic
		}
		pairLoad[a.NodeChannel[i]*lora.NumDRs+a.NodeRing[i]] += s.p.Nodes[i].Traffic
	}
	overload := func(j int, delta float64) float64 {
		if over := loads[j] + delta - float64(s.p.Gateways[j].Decoders); over > 0 {
			return over
		}
		return 0
	}
	pairOver := func(key int, delta float64) float64 {
		if over := pairLoad[key] + delta - 1; over > 0 {
			return over
		}
		return 0
	}

	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range s.p.Nodes {
			n := &s.p.Nodes[i]
			if n.Fixed {
				continue
			}
			curCh, curRing := a.NodeChannel[i], a.NodeRing[i]
			curKey := curCh*lora.NumDRs + curRing
			s.lsCur = links(i, curCh, curRing, s.lsCur)
			curLinks := s.lsCur
			if len(curLinks) == 0 {
				continue // unconnected: repaired elsewhere
			}
			// Lift the node out, then price every placement (including
			// the current one) on equal footing.
			for _, j := range curLinks {
				loads[j] -= n.Traffic
			}
			pairLoad[curKey] -= n.Traffic

			price := func(ch, ring int) float64 {
				c := 100 * pairOver(ch*lora.NumDRs+ring, n.Traffic)
				s.lsTmp = links(i, ch, ring, s.lsTmp)
				for _, g := range s.lsTmp {
					c += overload(g, n.Traffic)
				}
				return c
			}
			bestCost := price(curCh, curRing)
			bestCh, bestRing := curCh, curRing
			for j := 0; j < nGW; j++ {
				maxDR := n.MaxDR[j]
				if maxDR < 0 {
					continue
				}
				for _, ch := range a.GWChannels[j] {
					for ring := maxDR; ring >= 0; ring-- {
						if ch == curCh && ring == curRing {
							continue
						}
						if cand := price(ch, ring); cand < bestCost-1e-12 {
							bestCost, bestCh, bestRing = cand, ch, ring
						}
					}
				}
			}
			if bestCh != curCh || bestRing != curRing {
				a.NodeChannel[i], a.NodeRing[i] = bestCh, bestRing
				improved = true
			}
			// Put the node back at its (possibly new) placement.
			s.lsTmp = links(i, a.NodeChannel[i], a.NodeRing[i], s.lsTmp)
			for _, j := range s.lsTmp {
				loads[j] += n.Traffic
			}
			pairLoad[a.NodeChannel[i]*lora.NumDRs+a.NodeRing[i]] += n.Traffic
		}
		if !improved {
			break
		}
	}
}

// exactPolish is the hill-climb on the real objective: candidate moves
// are priced by replaying them on the incremental Scorer and reading the
// exact folded Cost, instead of the surrogate overload terms. Candidate
// enumeration order matches localSearch; each probe is one SetNode +
// flush, and the walk continues from the probe (no revert), so pricing a
// node costs candidates+1 flushes.
func (s *solver) exactPolish(a *cp.Assignment) {
	sc := cp.NewScorer(s.p)
	sc.Reset(a)
	cur := sc.Cost().Total()

	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := range s.p.Nodes {
			n := &s.p.Nodes[i]
			if n.Fixed {
				continue
			}
			curCh, curRing := a.NodeChannel[i], a.NodeRing[i]
			bestTotal, bestCh, bestRing := cur, curCh, curRing
			for j := range s.p.Gateways {
				maxDR := n.MaxDR[j]
				if maxDR < 0 {
					continue
				}
				for _, ch := range a.GWChannels[j] {
					for ring := maxDR; ring >= 0; ring-- {
						if ch == curCh && ring == curRing {
							continue
						}
						sc.SetNode(i, ch, ring)
						if cand := sc.Cost().Total(); cand < bestTotal-1e-12 {
							bestTotal, bestCh, bestRing = cand, ch, ring
						}
					}
				}
			}
			sc.SetNode(i, bestCh, bestRing)
			cur = sc.Cost().Total()
			if bestCh != curCh || bestRing != curRing {
				a.NodeChannel[i], a.NodeRing[i] = bestCh, bestRing
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

func sortPop(pop []indiv) {
	sort.SliceStable(pop, func(i, j int) bool {
		return pop[i].cost.Total() < pop[j].cost.Total()
	})
}

// evalAll scores the population, skipping carried elites. Evaluate is
// pure and each slot writes only itself, so the parallel fan-out across
// the shared deterministic worker pool stays bit-for-bit identical to the
// serial loop.
func (s *solver) evalAll(pop []indiv) {
	for i := range pop {
		if pop[i].scored {
			s.stats.EliteCarries++
		} else {
			s.stats.FullEvals++
		}
	}
	score := func(i int) {
		ind := &pop[i]
		if ind.scored {
			return
		}
		ind.cost = s.p.Evaluate(ind.a)
		ind.scored = true
	}
	if !s.opt.Parallel {
		for i := range pop {
			score(i)
		}
		return
	}
	runner.RunCells(len(pop), score)
}

// tournament returns the assignment of a tournament winner.
func (s *solver) tournament(pop []indiv) *cp.Assignment {
	best := s.rng.Intn(len(pop))
	for k := 1; k < s.opt.TournamentK; k++ {
		c := s.rng.Intn(len(pop))
		if pop[c].cost.Total() < pop[best].cost.Total() {
			best = c
		}
	}
	return pop[best].a
}

// greedySeed builds the constructive initial solution.
func (s *solver) greedySeed() *cp.Assignment {
	nGW, nCH := len(s.p.Gateways), len(s.p.Channels)
	a := &cp.Assignment{
		GWChannels:  make([][]int, nGW),
		NodeChannel: make([]int, len(s.p.Nodes)),
		NodeRing:    make([]int, len(s.p.Nodes)),
	}

	// Heterogeneous contiguous blocks: size channels-per-gateway so the
	// fleet's decoder budget concentrates (Strategy ①) while every channel
	// keeps coverage (Strategy ②). With G gateways and K channels, a block
	// of ceil(K/G) per gateway tiles the band; gateways beyond one tile
	// re-cover it at an offset for redundancy.
	for j := range s.p.Gateways {
		maxCh := s.p.Gateways[j].MaxChannels
		block := (nCH + nGW - 1) / nGW
		if block < 1 {
			block = 1
		}
		if block > maxCh {
			block = maxCh
		}
		if f := s.p.Gateways[j].FixedChannels; f > 0 {
			block = f
		}
		start := (j * block) % nCH
		set := make([]int, 0, block)
		for b := 0; b < block; b++ {
			set = append(set, (start+b)%nCH)
		}
		sort.Ints(set)
		// A wrapped block may violate the span constraint; fall back to a
		// clamped contiguous run.
		if start+block > nCH {
			set = set[:0]
			for b := nCH - block; b < nCH; b++ {
				set = append(set, b)
			}
		}
		a.GWChannels[j] = set
	}

	s.greedyNodes(a)
	return a
}

// greedyNodes assigns node channels/rings onto the given gateway plan,
// balancing (channel, DR) pairs and gateway decoder load.
func (s *solver) greedyNodes(a *cp.Assignment) {
	nGW := len(s.p.Gateways)
	gwLoad := make([]float64, nGW)
	pairLoad := make(map[int]float64)

	// Hardest nodes first: fewest reachable gateways.
	order := make([]int, len(s.p.Nodes))
	for i := range order {
		order[i] = i
	}
	reachCount := func(i int) int {
		c := 0
		for _, m := range s.p.Nodes[i].MaxDR {
			if m >= 0 {
				c++
			}
		}
		return c
	}
	sort.SliceStable(order, func(x, y int) bool {
		return reachCount(order[x]) < reachCount(order[y])
	})

	// linkedGWs returns every gateway a (channel, ring) choice would load:
	// all reachable gateways operating that channel. LoRaWAN has no
	// user-gateway association, so a packet consumes decoders at every
	// in-range gateway tuned to its frequency.
	linkedGWs := func(n *cp.NodeSpec, ch, ring int, out []int) []int {
		out = out[:0]
		for j := 0; j < nGW; j++ {
			if n.MaxDR[j] < ring {
				continue
			}
			for _, k := range a.GWChannels[j] {
				if k == ch {
					out = append(out, j)
					break
				}
			}
		}
		return out
	}

	var scratch []int
	for _, i := range order {
		n := &s.p.Nodes[i]
		if n.Fixed {
			a.NodeChannel[i] = n.FixedChannel
			a.NodeRing[i] = n.FixedRing
			for _, g := range linkedGWs(n, n.FixedChannel, n.FixedRing, scratch) {
				gwLoad[g] += n.Traffic
			}
			pairLoad[n.FixedChannel*lora.NumDRs+n.FixedRing] += n.Traffic
			continue
		}
		bestScore := -1.0
		bestCh, bestRing := -1, 0
		for j := 0; j < nGW; j++ {
			maxDR := n.MaxDR[j]
			if maxDR < 0 {
				continue
			}
			for _, ch := range a.GWChannels[j] {
				for ring := maxDR; ring >= 0; ring-- {
					pl := pairLoad[ch*lora.NumDRs+ring]
					// Projected decoder pressure across *every* gateway
					// this choice would load.
					scratch = linkedGWs(n, ch, ring, scratch)
					press := 0.0
					for _, g := range scratch {
						press += gwLoad[g] / float64(s.p.Gateways[g].Decoders)
						if over := gwLoad[g] + n.Traffic - float64(s.p.Gateways[g].Decoders); over > 0 {
							press += over * 10
						}
					}
					score := pl*1000 + press + float64(maxDR-ring)*0.01
					if bestCh == -1 || score < bestScore {
						bestScore, bestCh, bestRing = score, ch, ring
					}
					if pl == 0 {
						// Lower rings only add the DR penalty when the
						// pair is already empty.
						break
					}
				}
			}
		}
		if bestCh == -1 {
			// Unreachable node: leave defaults (penalized by Evaluate).
			continue
		}
		a.NodeChannel[i] = bestCh
		a.NodeRing[i] = bestRing
		for _, g := range linkedGWs(n, bestCh, bestRing, scratch) {
			gwLoad[g] += n.Traffic
		}
		pairLoad[bestCh*lora.NumDRs+bestRing] += n.Traffic
	}
}

func (s *solver) randomAssignment() *cp.Assignment {
	nGW, nCH := len(s.p.Gateways), len(s.p.Channels)
	a := &cp.Assignment{
		GWChannels:  make([][]int, nGW),
		NodeChannel: make([]int, len(s.p.Nodes)),
		NodeRing:    make([]int, len(s.p.Nodes)),
	}
	for j := range s.p.Gateways {
		a.GWChannels[j] = s.randomBlock(j)
	}
	for i := range s.p.Nodes {
		if n := &s.p.Nodes[i]; n.Fixed {
			a.NodeChannel[i] = n.FixedChannel
			a.NodeRing[i] = n.FixedRing
			continue
		}
		a.NodeChannel[i] = s.rng.Intn(nCH)
		a.NodeRing[i] = s.rng.Intn(lora.NumDRs)
	}
	s.repair(a)
	return a
}

// randomBlock draws a random contiguous channel block for gateway j —
// contiguity keeps the span constraint trivially satisfied for 200 kHz
// grids within the radio span.
func (s *solver) randomBlock(j int) []int {
	nCH := len(s.p.Channels)
	maxCh := s.p.Gateways[j].MaxChannels
	size := 1 + s.rng.Intn(min(maxCh, nCH))
	if f := s.p.Gateways[j].FixedChannels; f > 0 {
		size = min(f, nCH)
	}
	// Clamp size so the block's span fits the radio.
	for size > 1 {
		lo := s.p.Channels[0].Low()
		hi := s.p.Channels[size-1].High()
		if hi-lo <= s.p.Gateways[j].SpanHz {
			break
		}
		size--
	}
	start := s.rng.Intn(nCH - size + 1)
	set := make([]int, size)
	for b := range set {
		set[b] = start + b
	}
	return set
}

// crossover breeds a child as a clone of a with b's genes mixed in.
func (s *solver) crossover(a, b *cp.Assignment) *cp.Assignment {
	c := a.Clone()
	for j := range c.GWChannels {
		if s.rng.Intn(2) == 0 {
			c.GWChannels[j] = append([]int{}, b.GWChannels[j]...)
		}
	}
	for i := range c.NodeChannel {
		if s.rng.Intn(2) == 0 {
			c.NodeChannel[i] = b.NodeChannel[i]
			c.NodeRing[i] = b.NodeRing[i]
		}
	}
	return c
}

func (s *solver) mutate(a *cp.Assignment, rate float64) {
	for j := range a.GWChannels {
		if s.rng.Float64() < rate {
			a.GWChannels[j] = s.randomBlock(j)
		}
	}
	nCH := len(s.p.Channels)
	for i := range a.NodeChannel {
		if s.p.Nodes[i].Fixed {
			continue
		}
		if s.rng.Float64() < rate {
			a.NodeChannel[i] = s.rng.Intn(nCH)
		}
		if s.rng.Float64() < rate {
			a.NodeRing[i] = s.rng.Intn(lora.NumDRs)
		}
	}
}

// repair clamps node genes onto reachable gateways and operated channels,
// fixing constraint violations cheaply instead of penalizing them away.
func (s *solver) repair(a *cp.Assignment) {
	nGW := len(s.p.Gateways)
	var operated [64]bool
	anyOperated := false
	for k := range operated {
		operated[k] = false
	}
	for j := 0; j < nGW; j++ {
		for _, k := range a.GWChannels[j] {
			operated[k] = true
			anyOperated = true
		}
	}
	if !anyOperated {
		return
	}
	for i := range s.p.Nodes {
		n := &s.p.Nodes[i]
		if n.Fixed {
			continue
		}
		// Find this node's best reachable gateway whose channels include
		// the current gene; otherwise remap to the first reachable
		// gateway's least-indexed channel.
		ok := false
		for j := 0; j < nGW && !ok; j++ {
			if n.MaxDR[j] < 0 {
				continue
			}
			for _, k := range a.GWChannels[j] {
				if k == a.NodeChannel[i] {
					if a.NodeRing[i] > n.MaxDR[j] {
						a.NodeRing[i] = n.MaxDR[j]
					}
					ok = true
					break
				}
			}
		}
		if ok {
			continue
		}
		for j := 0; j < nGW; j++ {
			if n.MaxDR[j] < 0 || len(a.GWChannels[j]) == 0 {
				continue
			}
			set := a.GWChannels[j]
			a.NodeChannel[i] = set[s.rng.Intn(len(set))]
			if a.NodeRing[i] > n.MaxDR[j] {
				a.NodeRing[i] = n.MaxDR[j]
			}
			break
		}
	}
}
