package adaptive

import (
	"math/rand"
	"testing"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/region"
)

// randProblem mirrors the cp package's fuzz-shape generator (kept
// internal there): a handful of gateways with mixed decoder pools, span
// limits and occasional pinned channel counts, and nodes with patchy
// per-gateway reachability.
func randProblem(rng *rand.Rand) *cp.Problem {
	nCH := 4 + rng.Intn(12)
	nGW := 1 + rng.Intn(5)
	p := &cp.Problem{Channels: region.Testbed.AllChannels()[:nCH]}
	for j := 0; j < nGW; j++ {
		g := cp.GatewaySpec{
			Decoders:    1 + rng.Intn(20),
			MaxChannels: 1 + rng.Intn(8),
			SpanHz:      region.Hz(400_000 + rng.Intn(5_000_000)),
		}
		if rng.Intn(4) == 0 {
			g.FixedChannels = 1 + rng.Intn(4)
		}
		p.Gateways = append(p.Gateways, g)
	}
	nN := 1 + rng.Intn(40)
	for i := 0; i < nN; i++ {
		n := cp.NodeSpec{Traffic: float64(1+rng.Intn(8)) / 4}
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

// drift degrades a copy of the problem the way the controller's
// driftedProblem does: some gateways lose decoders, some go down
// entirely (every node loses reachability through them). The copy gets
// fresh NodeSpecs so the original's memoized reachability is untouched.
func drift(rng *rand.Rand, p *cp.Problem) *cp.Problem {
	q := &cp.Problem{Channels: p.Channels}
	q.Gateways = make([]cp.GatewaySpec, len(p.Gateways))
	down := make([]bool, len(p.Gateways))
	for j, spec := range p.Gateways {
		if rng.Intn(3) == 0 && spec.Decoders > 1 {
			spec.Decoders = 1 + rng.Intn(spec.Decoders)
		}
		if rng.Intn(4) == 0 {
			down[j] = true
		}
		q.Gateways[j] = spec
	}
	q.Nodes = make([]cp.NodeSpec, len(p.Nodes))
	for i, spec := range p.Nodes {
		maxDR := make([]int, len(spec.MaxDR))
		copy(maxDR, spec.MaxDR)
		for j := range maxDR {
			if down[j] {
				maxDR[j] = -1
			}
		}
		spec.MaxDR = maxDR
		q.Nodes[i] = spec
	}
	return q
}

func solveOpts(seed int64) evolve.Options {
	return evolve.Options{
		Population:  16,
		Generations: 12,
		TournamentK: 3,
		Elitism:     2,
		Patience:    6,
		Seed:        seed,
		ExactPolish: true,
	}
}

// TestReplanProperties is the acceptance rule's property suite, fuzzed
// over seeds: for every random problem and random drift of it,
//
//  1. the adopted plan always validates against the drifted problem;
//  2. the adopted plan is never worse than the incumbent on the Scorer
//     objective priced against the triggering snapshot;
//  3. the decision's costs — computed as an incremental Rescore of the
//     diff over the incumbent — bit-match a full from-scratch
//     evaluation, extending the solver's differential oracle to the
//     replan path (Evaluate itself is pinned to the reference
//     implementation by the cp package's own differential tests).
func TestReplanProperties(t *testing.T) {
	adoptions := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randProblem(rng)
		base, err := evolve.Solve(p, solveOpts(seed))
		if err != nil {
			t.Fatalf("seed %d: base solve: %v", seed, err)
		}
		incumbent := base.Assignment
		q := drift(rng, p)
		d, err := Replan(q, incumbent, solveOpts(seed+1000))
		if err != nil {
			t.Fatalf("seed %d: replan: %v", seed, err)
		}
		if got, want := d.IncumbentCost, q.Evaluate(incumbent); got != want {
			t.Errorf("seed %d: incumbent cost %+v != full evaluation %+v", seed, got, want)
		}
		if got, want := d.CandidateCost, q.Evaluate(d.Candidate); got != want {
			t.Errorf("seed %d: candidate rescore %+v != full evaluation %+v", seed, got, want)
		}
		if d.Adopted {
			adoptions++
			if err := d.Candidate.Validate(q); err != nil {
				t.Errorf("seed %d: adopted plan does not validate: %v", seed, err)
			}
			if d.CandidateCost.Total() > d.IncumbentCost.Total() {
				t.Errorf("seed %d: adopted plan regresses objective: %v > %v",
					seed, d.CandidateCost.Total(), d.IncumbentCost.Total())
			}
		}
		// Diff sanity: empty diff ⇔ candidate equals incumbent.
		if len(d.Diff) == 0 && len(DiffGenes(incumbent, d.Candidate)) != 0 {
			t.Errorf("seed %d: empty diff for differing assignments", seed)
		}
		for k := 1; k < len(d.Diff); k++ {
			a, b := d.Diff[k-1], d.Diff[k]
			// Gateway genes (negative, descending raw value as index
			// ascends) must precede node genes, each block ascending by
			// index.
			if a.IsNode() && !b.IsNode() {
				t.Fatalf("seed %d: node gene before gateway gene in diff", seed)
			}
			if a.IsNode() == b.IsNode() && a.Index() >= b.Index() {
				t.Fatalf("seed %d: diff indices not ascending", seed)
			}
		}
	}
	// The fuzz must actually exercise the adoption path, not just reject
	// everything (deterministic: every draw above is seeded).
	if adoptions == 0 {
		t.Error("no candidate was ever adopted across the fuzz")
	}
}

// TestReplanRejectsInvalidIncumbent pins the error path: an incumbent
// that does not cover the problem shape is refused outright rather than
// solved around.
func TestReplanRejectsInvalidIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randProblem(rng)
	bad := &cp.Assignment{} // covers nothing
	if _, err := Replan(p, bad, solveOpts(1)); err == nil {
		t.Fatal("replan accepted an incumbent that does not cover the problem")
	}
}

// TestReplanDeterminism: same problem, same incumbent, same options ⇒
// bit-identical decision.
func TestReplanDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randProblem(rng)
	base, err := evolve.Solve(p, solveOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	q := drift(rng, p)
	d1, err1 := Replan(q, base.Assignment, solveOpts(77))
	d2, err2 := Replan(q, base.Assignment, solveOpts(77))
	if err1 != nil || err2 != nil {
		t.Fatalf("replan errors: %v / %v", err1, err2)
	}
	if d1.Adopted != d2.Adopted || d1.CandidateCost != d2.CandidateCost ||
		d1.IncumbentCost != d2.IncumbentCost || len(d1.Diff) != len(d2.Diff) {
		t.Fatalf("replan decisions diverge: %+v vs %+v", d1, d2)
	}
	for i := range d1.Diff {
		if d1.Diff[i] != d2.Diff[i] {
			t.Fatalf("diff gene %d diverges: %v vs %v", i, d1.Diff[i], d2.Diff[i])
		}
	}
}
