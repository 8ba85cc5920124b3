package cp

import (
	"math/rand"
	"testing"

	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
)

// randProblem builds a hostile random instance: dyadic traffic (so float
// sums are exact and order-independent, keeping the spill map's
// iteration order out of the comparison), unreachable gateways, fixed
// channel counts, and tight spans.
func randProblem(rng *rand.Rand) *Problem {
	nCH := 4 + rng.Intn(12)
	nGW := 1 + rng.Intn(5)
	p := &Problem{Channels: region.Testbed.AllChannels()[:nCH]}
	for j := 0; j < nGW; j++ {
		g := GatewaySpec{
			Decoders:    1 + rng.Intn(20),
			MaxChannels: 1 + rng.Intn(8),
			SpanHz:      region.Hz(400_000 + rng.Intn(5_000_000)),
		}
		if rng.Intn(4) == 0 {
			g.FixedChannels = 1 + rng.Intn(4)
		}
		p.Gateways = append(p.Gateways, g)
	}
	nN := 1 + rng.Intn(60)
	for i := 0; i < nN; i++ {
		n := NodeSpec{Traffic: float64(1+rng.Intn(8)) / 4}
		for j := 0; j < nGW; j++ {
			if rng.Intn(10) < 3 {
				n.MaxDR = append(n.MaxDR, -1)
			} else {
				n.MaxDR = append(n.MaxDR, rng.Intn(lora.NumDRs))
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	return p
}

// randAssignment builds an assignment exercising every failure path:
// empty / oversized / out-of-range / span-breaking channel sets and
// out-of-grid node genes (spill).
func randAssignment(rng *rand.Rand, p *Problem) *Assignment {
	nCH := len(p.Channels)
	a := &Assignment{
		GWChannels:  make([][]int, len(p.Gateways)),
		NodeChannel: make([]int, len(p.Nodes)),
		NodeRing:    make([]int, len(p.Nodes)),
	}
	for j := range a.GWChannels {
		a.GWChannels[j] = randGWSet(rng, nCH)
	}
	for i := range p.Nodes {
		a.NodeChannel[i], a.NodeRing[i] = randNodeGene(rng, nCH)
	}
	return a
}

// randNodeGene draws a channel two either side of the universe and a ring
// in [0, lora.NumDRs]: negative rings are outside Evaluate's contract,
// and the top value, one past the grid, keeps the spill path covered.
func randNodeGene(rng *rand.Rand, nCH int) (ch, ring int) {
	return rng.Intn(nCH+4) - 2, rng.Intn(lora.NumDRs + 1)
}

func randGWSet(rng *rand.Rand, nCH int) []int {
	switch rng.Intn(8) {
	case 0:
		return nil // empty set → violation
	case 1:
		return []int{rng.Intn(nCH+2) - 1} // possibly out of range
	}
	n := 1 + rng.Intn(8)
	set := make([]int, 0, n)
	for len(set) < n {
		set = append(set, rng.Intn(nCH))
	}
	return set
}

// TestScorerDifferential drives random problems through random gene-move
// sequences and demands that every Scorer path — Reset of a fresh and of
// a used Scorer, in-place SetNode/SetGWChannels + Cost, in-place Rescore
// — agree bit-for-bit with both the fast Evaluate and the dense
// reference evaluator at every step.
func TestScorerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := randProblem(rng)
		a := randAssignment(rng, p)
		sc := NewScorer(p)
		sc.Reset(a)
		checkAll(t, p, a, sc.Cost(), "Reset")

		setters := NewScorer(p)
		setters.Reset(a)
		for step := 0; step < 40; step++ {
			// Mutate 1–3 genes, recording the diff (sometimes recording
			// an unchanged gene too — must be a harmless no-op).
			var genes []Gene
			for g := 0; g < 1+rng.Intn(3); g++ {
				if rng.Intn(4) == 0 && len(p.Gateways) > 0 {
					j := rng.Intn(len(p.Gateways))
					a.GWChannels[j] = randGWSet(rng, len(p.Channels))
					genes = append(genes, GWGene(j))
				} else {
					i := rng.Intn(len(p.Nodes))
					a.NodeChannel[i], a.NodeRing[i] = randNodeGene(rng, len(p.Channels))
					genes = append(genes, NodeGene(i))
				}
			}
			if rng.Intn(3) == 0 {
				genes = append(genes, NodeGene(rng.Intn(len(p.Nodes)))) // no-op listing
			}

			// Path 1: the setters one gene at a time, then one flush.
			for _, g := range genes {
				if i := g.Index(); g.IsNode() {
					setters.SetNode(i, a.NodeChannel[i], a.NodeRing[i])
				} else {
					setters.SetGWChannels(i, a.GWChannels[i])
				}
			}
			checkAll(t, p, a, setters.Cost(), "SetNode/SetGWChannels+Cost")

			// Path 2: in-place Rescore, as the hill-climb does.
			checkAll(t, p, a, sc.Rescore(a, genes), "in-place Rescore")
		}

		// Path 3: Reset on a used Scorer. Everything it held belongs to
		// another assignment (on setters, with one change not yet
		// flushed); then twice to the assignment it already holds, where
		// no element changes and the cost must not either.
		b := randAssignment(rng, p)
		i := rng.Intn(len(p.Nodes))
		setters.SetNode(i, a.NodeChannel[i]+1, a.NodeRing[i])
		for _, used := range []*Scorer{sc, setters} {
			used.Reset(b)
			checkAll(t, p, b, used.Cost(), "Reset of a used Scorer")
			for k := 0; k < 2; k++ {
				used.Reset(b)
				checkAll(t, p, b, used.Cost(), "Reset to the held assignment")
			}
		}
	}
}

func checkAll(t *testing.T, p *Problem, a *Assignment, got Cost, path string) {
	t.Helper()
	if want := p.Evaluate(a); got != want {
		t.Fatalf("%s: scorer %+v != Evaluate %+v", path, got, want)
	}
	if want := p.evaluateRef(a); got != want {
		t.Fatalf("%s: scorer %+v != reference %+v", path, got, want)
	}
}

// TestEvaluateFastMatchesRef pins the memoized Evaluate path against the
// dense reference on its own, independent of the Scorer.
func TestEvaluateFastMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		p := randProblem(rng)
		a := randAssignment(rng, p)
		if got, want := p.Evaluate(a), p.evaluateRef(a); got != want {
			t.Fatalf("Evaluate %+v != reference %+v", got, want)
		}
	}
}

// FuzzScorerRescore lets the fuzzer pick the RNG seed and sequence shape
// for the same differential property.
func FuzzScorerRescore(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng)
		a := randAssignment(rng, p)
		sc := NewScorer(p)
		sc.Reset(a)
		for step := 0; step < int(steps%48); step++ {
			i := rng.Intn(len(p.Nodes))
			a.NodeChannel[i], a.NodeRing[i] = randNodeGene(rng, len(p.Channels))
			genes := []Gene{NodeGene(i)}
			if rng.Intn(4) == 0 {
				j := rng.Intn(len(p.Gateways))
				a.GWChannels[j] = randGWSet(rng, len(p.Channels))
				genes = append(genes, GWGene(j))
			}
			if got, want := sc.Rescore(a, genes), p.Evaluate(a); got != want {
				t.Fatalf("step %d: scorer %+v != Evaluate %+v", step, got, want)
			}
		}
		// The used Scorer, reset to an unrelated assignment.
		b := randAssignment(rng, p)
		sc.Reset(b)
		checkAll(t, p, b, sc.Cost(), "Reset of a used Scorer")
	})
}

// benchProblem is a fig17-scale instance: Testbed's 24 channels, 12
// SX1302 gateways, 144 nodes with distance-graded reachability.
func benchProblem(seed int64) (*Problem, *Assignment) {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{Channels: region.Testbed.AllChannels()}
	const nGW = 12
	for j := 0; j < nGW; j++ {
		p.Gateways = append(p.Gateways, GatewaySpec{
			Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000,
		})
	}
	for i := 0; i < region.Testbed.TheoreticalCapacity(); i++ {
		n := NodeSpec{Traffic: float64(1+rng.Intn(4)) / 2}
		for j := 0; j < nGW; j++ {
			switch d := rng.Intn(10); {
			case d < 3:
				n.MaxDR = append(n.MaxDR, -1)
			default:
				n.MaxDR = append(n.MaxDR, rng.Intn(lora.NumDRs))
			}
		}
		// Guarantee one reachable gateway so the instance is connectable.
		if n.MaxDR[i%nGW] < 0 {
			n.MaxDR[i%nGW] = lora.NumDRs - 1
		}
		p.Nodes = append(p.Nodes, n)
	}
	a := &Assignment{
		GWChannels:  make([][]int, nGW),
		NodeChannel: make([]int, len(p.Nodes)),
		NodeRing:    make([]int, len(p.Nodes)),
	}
	for j := 0; j < nGW; j++ {
		base := (j * 3) % len(p.Channels)
		for k := 0; k < 8; k++ {
			a.GWChannels[j] = append(a.GWChannels[j], (base+k)%24)
		}
	}
	for i := range p.Nodes {
		// Park each node on a channel one of its gateways operates.
		for _, set := range a.GWChannels {
			a.NodeChannel[i] = set[i%len(set)]
			break
		}
		a.NodeRing[i] = 0
		for j, m := range p.Nodes[i].MaxDR {
			if m >= 0 {
				a.NodeChannel[i] = a.GWChannels[j][i%len(a.GWChannels[j])]
				a.NodeRing[i] = i % (m + 1)
				break
			}
		}
	}
	return p, a
}

// deltaMoves pre-generates small two-gene diffs against base, cycling
// through nodes; each move is (assignment, genes) ready to replay.
func deltaMoves(p *Problem, base *Assignment, n int) []struct {
	a     *Assignment
	genes []Gene
} {
	rng := rand.New(rand.NewSource(5))
	moves := make([]struct {
		a     *Assignment
		genes []Gene
	}, n)
	for k := range moves {
		a := base.Clone()
		i := rng.Intn(len(p.Nodes))
		a.NodeChannel[i] = rng.Intn(len(p.Channels))
		a.NodeRing[i] = rng.Intn(lora.NumDRs)
		i2 := rng.Intn(len(p.Nodes))
		a.NodeRing[i2] = rng.Intn(lora.NumDRs)
		moves[k].a = a
		moves[k].genes = []Gene{NodeGene(i), NodeGene(i2)}
	}
	return moves
}

// TestRescoreSteadyStateAllocs pins the warm re-pricing cycle — apply a
// move, flush, apply its inverse, flush — at zero allocations.
func TestRescoreSteadyStateAllocs(t *testing.T) {
	p, base := benchProblem(1)
	sc := NewScorer(p)
	sc.Reset(base)
	moves := deltaMoves(p, base, 64)
	// Warm: let every append-backed slice reach its steady capacity.
	for _, mv := range moves {
		sc.Rescore(mv.a, mv.genes)
		sc.Rescore(base, mv.genes)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		mv := moves[k%len(moves)]
		k++
		sc.Rescore(mv.a, mv.genes)
		sc.Rescore(base, mv.genes)
	})
	if allocs != 0 {
		t.Errorf("warm Rescore allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkEvaluateFull is the baseline: a full Evaluate of a
// fig17-scale candidate.
func BenchmarkEvaluateFull(b *testing.B) {
	p, a := benchProblem(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Evaluate(a)
	}
}

// BenchmarkEvaluateRef is the dense pre-memoization evaluator, kept for
// the speedup denominator in docs.
func BenchmarkEvaluateRef(b *testing.B) {
	p, a := benchProblem(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.evaluateRef(a)
	}
}

// BenchmarkRescoreDelta prices the same candidates incrementally: one op
// applies a two-gene diff and flushes, then applies its inverse and
// flushes — the path ExactPolish's hill-climb takes.
func BenchmarkRescoreDelta(b *testing.B) {
	p, base := benchProblem(1)
	sc := NewScorer(p)
	sc.Reset(base)
	moves := deltaMoves(p, base, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		_ = sc.Rescore(mv.a, mv.genes)
		_ = sc.Rescore(base, mv.genes)
	}
}
