package adaptive

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
)

// Decision is the outcome of one bounded re-solve against a drifted
// problem.
type Decision struct {
	// Candidate is the re-solved assignment (always set, adopted or not).
	Candidate *cp.Assignment
	// Diff lists the genes where Candidate differs from the incumbent,
	// gateway genes first (ascending gateway index) then node genes
	// (ascending node index) — the order the controller pushes them in.
	Diff []cp.Gene
	// IncumbentCost is a full Evaluate of the incumbent on the drifted
	// problem; CandidateCost is the cost Solve returned with the
	// candidate, itself a full Evaluate. A replan rewrites nearly every
	// gene (PR 11 measured 11 736 of 12 012), so neither is priced
	// incrementally.
	IncumbentCost cp.Cost
	CandidateCost cp.Cost
	// Adopted reports whether the candidate passed the acceptance rule:
	// it validates against the drifted problem and its total cost is no
	// worse than the incumbent's. The rule is load-bearing — the solver's
	// surrogate local search can worsen the true objective, and a network
	// must never adopt a plan its own telemetry prices as a regression.
	Adopted bool
}

// Replan prices the incumbent against the drifted problem, runs a
// bounded warm-started solve, and applies the acceptance rule. Pure: no
// clocks, no globals — same inputs, same decision.
func Replan(q *cp.Problem, incumbent *cp.Assignment, opt evolve.Options) (*Decision, error) {
	// Only the incumbent's shape is a hard precondition. Its *content*
	// may legally violate radio constraints (the solver prices span
	// violations instead of excluding them, so an overconstrained
	// problem's best plan can carry some); the acceptance rule holds the
	// candidate — not the incumbent — to the strict check.
	if len(incumbent.GWChannels) != len(q.Gateways) ||
		len(incumbent.NodeChannel) != len(q.Nodes) || len(incumbent.NodeRing) != len(q.Nodes) {
		return nil, fmt.Errorf("adaptive: incumbent covers %d gateways / %d nodes, problem has %d / %d",
			len(incumbent.GWChannels), len(incumbent.NodeChannel), len(q.Gateways), len(q.Nodes))
	}
	opt.WarmStart = incumbent
	res, err := evolve.Solve(q, opt)
	if err != nil {
		return nil, fmt.Errorf("adaptive: %w", err)
	}

	d := &Decision{
		Candidate:     res.Assignment,
		Diff:          DiffGenes(incumbent, res.Assignment),
		IncumbentCost: q.Evaluate(incumbent),
		CandidateCost: res.Cost,
	}
	d.Adopted = res.Assignment.Validate(q) == nil && d.CandidateCost.Total() <= d.IncumbentCost.Total()
	return d, nil
}

// DiffGenes lists the genes where b differs from a: gateway genes in
// ascending gateway order, then node genes in ascending node order. The
// two assignments must cover the same problem shape.
func DiffGenes(a, b *cp.Assignment) []cp.Gene {
	var diff []cp.Gene
	for j := range a.GWChannels {
		if !sameChannelSet(a.GWChannels[j], b.GWChannels[j]) {
			diff = append(diff, cp.GWGene(j))
		}
	}
	for i := range a.NodeChannel {
		if a.NodeChannel[i] != b.NodeChannel[i] || a.NodeRing[i] != b.NodeRing[i] {
			diff = append(diff, cp.NodeGene(i))
		}
	}
	return diff
}

// sameChannelSet compares two gateway channel lists as sets (≤64
// channels, so a bitmask suffices — the same bound cp enforces).
func sameChannelSet(a, b []int) bool {
	var ma, mb uint64
	for _, k := range a {
		ma |= 1 << uint(k)
	}
	for _, k := range b {
		mb |= 1 << uint(k)
	}
	return ma == mb
}
