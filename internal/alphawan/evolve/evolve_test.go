package evolve

import (
	"math/rand"
	"testing"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
)

func gwSpec(n int) []cp.GatewaySpec {
	out := make([]cp.GatewaySpec, n)
	for i := range out {
		out[i] = cp.GatewaySpec{Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000}
	}
	return out
}

// fullReach builds n nodes that reach every gateway at DR5.
func fullReach(n, gws int) []cp.NodeSpec {
	out := make([]cp.NodeSpec, n)
	for i := range out {
		reach := make([]int, gws)
		for j := range reach {
			reach[j] = 5
		}
		out[i] = cp.NodeSpec{Traffic: 1, MaxDR: reach}
	}
	return out
}

func TestSolveSmallToZeroRisk(t *testing.T) {
	// 48 users, 8 channels, 4 gateways: partitioning the band 2 channels
	// per gateway carries 12 users each (≤ 16 decoders) with one user per
	// (ch, DR) pair — a zero-risk, zero-overload plan the solver must find.
	// (With only 3 gateways no zero-risk plan exists: channel granularity
	// is 6 users, and {3,3,2} channel splits load 18/18/12.)
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(4),
		Nodes:    fullReach(48, 4),
	}
	res, err := Solve(p, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Feasible() {
		t.Fatalf("infeasible: %+v", res.Cost)
	}
	if res.Cost.DecoderRisk != 0 {
		t.Errorf("decoder risk = %v, want 0", res.Cost.DecoderRisk)
	}
	if res.Cost.ChannelOverload != 0 {
		t.Errorf("channel overload = %v, want 0 (48 slots for 48 users)", res.Cost.ChannelOverload)
	}
}

func TestSolveRespectsConstraints(t *testing.T) {
	p := &cp.Problem{
		Channels: region.Testbed.AllChannels(), // 24 channels: span matters
		Gateways: gwSpec(5),
		Nodes:    fullReach(60, 5),
	}
	res, err := Solve(p, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SpanViolations != 0 {
		t.Errorf("solution violates radio constraints: %+v", res.Cost)
	}
	if res.Cost.Unconnected != 0 {
		t.Errorf("solution leaves nodes unconnected: %+v", res.Cost)
	}
	// Explicit re-check of the radio limits on the returned assignment.
	for j, set := range res.Assignment.GWChannels {
		if len(set) == 0 || len(set) > 8 {
			t.Errorf("gateway %d operates %d channels", j, len(set))
		}
		lo := p.Channels[set[0]].Low()
		hi := p.Channels[set[0]].High()
		for _, k := range set {
			if p.Channels[k].Low() < lo {
				lo = p.Channels[k].Low()
			}
			if p.Channels[k].High() > hi {
				hi = p.Channels[k].High()
			}
		}
		if hi-lo > 1_600_000 {
			t.Errorf("gateway %d span %v exceeds 1.6 MHz", j, hi-lo)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(2),
		Nodes:    fullReach(30, 2),
	}
	opt := DefaultOptions(7)
	opt.Generations = 20
	a, _ := Solve(p, opt)
	b, _ := Solve(p, opt)
	if a.Cost != b.Cost {
		t.Errorf("same seed must give the same cost: %+v vs %+v", a.Cost, b.Cost)
	}
	for i := range a.Assignment.NodeChannel {
		if a.Assignment.NodeChannel[i] != b.Assignment.NodeChannel[i] {
			t.Fatal("same seed must give identical assignments")
		}
	}
}

func TestSolveSerialMatchesParallelCostClass(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(2),
		Nodes:    fullReach(30, 2),
	}
	opt := DefaultOptions(7)
	opt.Generations = 20
	par, _ := Solve(p, opt)
	opt.Parallel = false
	ser, _ := Solve(p, opt)
	// Evaluation is pure, so parallel and serial runs are identical.
	if par.Cost != ser.Cost {
		t.Errorf("parallel %v vs serial %v", par.Cost, ser.Cost)
	}
}

func TestGreedySeedAlreadyGood(t *testing.T) {
	// The greedy seed alone should be feasible and near-zero-risk for the
	// easy case — the GA refines rather than rescues.
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(4),
		Nodes:    fullReach(48, 4),
	}
	opt := DefaultOptions(1)
	opt.Generations = 1
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SeededCost.Feasible() {
		t.Errorf("greedy seed infeasible: %+v", res.SeededCost)
	}
	if res.SeededCost.DecoderRisk > 20 {
		t.Errorf("greedy seed risk = %v, want small", res.SeededCost.DecoderRisk)
	}
}

func TestPartialReachability(t *testing.T) {
	// Nodes each reach only one gateway; the solver must still connect all.
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(2),
	}
	for i := 0; i < 20; i++ {
		reach := []int{-1, -1}
		reach[i%2] = 3 // only DR ≤ 3 closes
		p.Nodes = append(p.Nodes, cp.NodeSpec{Traffic: 1, MaxDR: reach})
	}
	res, err := Solve(p, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Unconnected != 0 {
		t.Errorf("unconnected = %d", res.Cost.Unconnected)
	}
	for i, ring := range res.Assignment.NodeRing {
		if ring > 3 {
			t.Errorf("node %d assigned DR%d beyond its reach", i, ring)
		}
	}
}

func TestSolveValidatesProblem(t *testing.T) {
	if _, err := Solve(&cp.Problem{}, DefaultOptions(1)); err == nil {
		t.Error("invalid problem must be rejected")
	}
}

func TestEarlyStopping(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(1),
		Nodes:    fullReach(4, 1),
	}
	opt := DefaultOptions(1)
	opt.Generations = 1000
	opt.Patience = 5
	res, _ := Solve(p, opt)
	if res.Generations >= 1000 {
		t.Errorf("patience must stop early, ran %d generations", res.Generations)
	}
}

// TestParallelFitnessMatchesSerial pins the determinism of the parallel
// fitness loop: with identical seeds, fanning Evaluate across the worker
// pool must produce the same search trajectory — and therefore the same
// final assignment and cost — as the serial evaluation.
func TestParallelFitnessMatchesSerial(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(4),
		Nodes:    fullReach(48, 4),
	}
	run := func(parallel bool, workers int) (*Result, error) {
		prev := runner.SetMaxWorkers(workers)
		defer runner.SetMaxWorkers(prev)
		opt := DefaultOptions(11)
		opt.Generations = 40
		opt.Patience = 0
		opt.Parallel = parallel
		return Solve(p, opt)
	}
	serial, err := run(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(true, 6)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cost.Total() != parallel.Cost.Total() {
		t.Fatalf("cost diverged: serial %v, parallel %v", serial.Cost, parallel.Cost)
	}
	if serial.Generations != parallel.Generations {
		t.Fatalf("generations diverged: %d vs %d", serial.Generations, parallel.Generations)
	}
	for i := range serial.Assignment.NodeChannel {
		if serial.Assignment.NodeChannel[i] != parallel.Assignment.NodeChannel[i] ||
			serial.Assignment.NodeRing[i] != parallel.Assignment.NodeRing[i] {
			t.Fatalf("node %d gene diverged", i)
		}
	}
}

// TestParallelFitnessStress exercises the fitness fan-out with far more
// individuals than workers — the shape `go test -race` needs to catch
// cross-slot writes.
func TestParallelFitnessStress(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(3),
		Nodes:    fullReach(24, 3),
	}
	prev := runner.SetMaxWorkers(4)
	defer runner.SetMaxWorkers(prev)
	opt := DefaultOptions(5)
	opt.Population = 128 // 128 cells over 4 workers, every generation
	opt.Generations = 10
	opt.Patience = 0
	opt.Parallel = true
	if _, err := Solve(p, opt); err != nil {
		t.Fatal(err)
	}
}

// TestEliteCarrySkipsReEvaluation asserts elites ride through
// generations on their known cost instead of being re-scored.
func TestEliteCarrySkipsReEvaluation(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(2),
		Nodes:    fullReach(30, 2),
	}
	opt := DefaultOptions(3)
	opt.Generations = 10
	opt.Patience = 0
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := opt.Elitism * res.Generations; res.Stats.EliteCarries != want {
		t.Errorf("elite carries = %d, want %d (%d elites x %d generations)",
			res.Stats.EliteCarries, want, opt.Elitism, res.Generations)
	}
	scored := res.Stats.FullEvals + res.Stats.Rescores
	budget := opt.Population * (res.Generations + 1)
	if scored >= budget {
		t.Errorf("scored %d candidates, want fewer than the naive %d", scored, budget)
	}
}

// TestLocalSearchAllocBudget pins the hill-climb's allocation profile:
// per-call setup (load arrays, the pair map) is allowed, but pricing
// candidates must not allocate — the budget stays flat no matter how
// many (node, channel, ring) placements a pass enumerates.
func TestLocalSearchAllocBudget(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(4),
		Nodes:    fullReach(48, 4), // ≈48 x 8 x 6 candidate prices per pass
	}
	s := &solver{p: p, opt: DefaultOptions(1), rng: rand.New(rand.NewSource(1))}
	base := s.greedySeed()
	scratch := base.Clone()
	// Warm the solver's reusable link scratches.
	s.localSearch(scratch)
	allocs := testing.AllocsPerRun(10, func() {
		copy(scratch.NodeChannel, base.NodeChannel)
		copy(scratch.NodeRing, base.NodeRing)
		s.localSearch(scratch)
	})
	if allocs > 100 {
		t.Errorf("localSearch allocates %.0f allocs/op; want per-call setup only (≤100), independent of candidate count", allocs)
	}
}

// TestExactPolish exercises the opt-in Evaluate-priced hill-climb: it
// must stay deterministic, feasible, and report a cost consistent with
// a fresh Evaluate of the returned assignment.
func TestExactPolish(t *testing.T) {
	p := &cp.Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: gwSpec(4),
		Nodes:    fullReach(48, 4),
	}
	opt := DefaultOptions(9)
	opt.Generations = 20
	opt.ExactPolish = true
	a, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("exact polish not deterministic: %+v vs %+v", a.Cost, b.Cost)
	}
	if !a.Cost.Feasible() {
		t.Errorf("exact polish left infeasible plan: %+v", a.Cost)
	}
	if got := p.Evaluate(a.Assignment); got != a.Cost {
		t.Errorf("reported cost %+v != Evaluate %+v", a.Cost, got)
	}
}
