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

// TestEvaluateFastMatchesRef pins the memoized Evaluate path against the
// dense reference on fresh random instances.
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

// FuzzEvaluateMatchesOracle lets the fuzzer pick the RNG seed and the
// length of a random edit walk — a node gene every step, a gateway set
// one step in four — and demands that Evaluate bit-match the dense
// reference evaluator after every edit.
func FuzzEvaluateMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng)
		a := randAssignment(rng, p)
		for step := 0; step < int(steps%48); step++ {
			i := rng.Intn(len(p.Nodes))
			a.NodeChannel[i], a.NodeRing[i] = randNodeGene(rng, len(p.Channels))
			if rng.Intn(4) == 0 {
				j := rng.Intn(len(p.Gateways))
				a.GWChannels[j] = randGWSet(rng, len(p.Channels))
			}
			if got, want := p.Evaluate(a), p.evaluateRef(a); got != want {
				t.Fatalf("step %d: Evaluate %+v != reference %+v", step, got, want)
			}
		}
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

// BenchmarkEvaluateFull prices one fig17-scale candidate with a full
// Evaluate.
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
