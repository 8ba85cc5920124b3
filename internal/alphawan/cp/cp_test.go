package cp

import (
	"testing"

	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
)

// smallProblem: 8 channels, 2 SX1302 gateways, n nodes all reaching both
// gateways at DR5.
func smallProblem(n int) *Problem {
	p := &Problem{
		Channels: region.AS923.AllChannels(),
		Gateways: []GatewaySpec{
			{Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000},
			{Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000},
		},
	}
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, NodeSpec{Traffic: 1, MaxDR: []int{5, 5}})
	}
	return p
}

// flat returns an assignment with all gateways on all 8 channels and nodes
// spread over channels at DR5.
func flat(p *Problem) *Assignment {
	a := &Assignment{
		GWChannels:  make([][]int, len(p.Gateways)),
		NodeChannel: make([]int, len(p.Nodes)),
		NodeRing:    make([]int, len(p.Nodes)),
	}
	for j := range a.GWChannels {
		a.GWChannels[j] = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	for i := range a.NodeChannel {
		a.NodeChannel[i] = i % 8
		a.NodeRing[i] = 5
	}
	return a
}

func TestValidate(t *testing.T) {
	p := smallProblem(4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallProblem(1)
	bad.Nodes[0].MaxDR = []int{5}
	if err := bad.Validate(); err == nil {
		t.Error("reach-vector length mismatch must fail")
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("empty problem must fail")
	}
}

// TestAssignmentValidate pins the contract Evaluate and the Scorer rely
// on and no longer check themselves: every gene inside the (channel,
// ring) grid, every gateway set within its radio's constraints.
func TestAssignmentValidate(t *testing.T) {
	wide := &Problem{Channels: make([]region.Channel, 65), Gateways: smallProblem(0).Gateways}
	cases := []struct {
		name string
		p    *Problem
		edit func(a *Assignment)
		ok   bool
	}{
		{"flat plan", smallProblem(4), func(a *Assignment) {}, true},
		{"negative ring", smallProblem(4), func(a *Assignment) { a.NodeRing[2] = -1 }, false},
		{"ring = NumDRs", smallProblem(4), func(a *Assignment) { a.NodeRing[2] = lora.NumDRs }, false},
		{"top ring", smallProblem(4), func(a *Assignment) { a.NodeRing[2] = lora.NumDRs - 1 }, true},
		{"negative channel", smallProblem(4), func(a *Assignment) { a.NodeChannel[0] = -1 }, false},
		{"channel past the universe", smallProblem(4), func(a *Assignment) { a.NodeChannel[0] = 8 }, false},
		{"gateway row missing", smallProblem(4), func(a *Assignment) { a.GWChannels = a.GWChannels[:1] }, false},
		{"node channel row short", smallProblem(4), func(a *Assignment) { a.NodeChannel = a.NodeChannel[:3] }, false},
		{"node ring row short", smallProblem(4), func(a *Assignment) { a.NodeRing = a.NodeRing[:3] }, false},
		{"more than 64 channels", wide, func(a *Assignment) {}, false},
		{"empty gateway set", smallProblem(4), func(a *Assignment) { a.GWChannels[1] = nil }, false},
		{"gateway channel past the universe", smallProblem(4), func(a *Assignment) { a.GWChannels[1] = []int{8} }, false},
		{"more channels than chains", smallProblem(4), func(a *Assignment) { a.GWChannels[0] = []int{0, 1, 2, 3, 4, 5, 6, 7, 0} }, false},
		{"span-breaking set", testbedProblem(), func(a *Assignment) { a.GWChannels[0] = []int{0, 23} }, false},
		{"set inside the span", testbedProblem(), func(a *Assignment) { a.GWChannels[0] = []int{0, 7} }, true},
	}
	for _, tc := range cases {
		a := flat(tc.p)
		tc.edit(a)
		if err := a.Validate(tc.p); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// testbedProblem: Testbed's 24 channels (4.8 MHz) against one SX1302
// gateway's 1.6 MHz span, one node.
func testbedProblem() *Problem {
	return &Problem{
		Channels: region.Testbed.AllChannels(),
		Gateways: []GatewaySpec{{Decoders: 16, MaxChannels: 8, SpanHz: 1_600_000}},
		Nodes:    []NodeSpec{{Traffic: 1, MaxDR: []int{5}}},
	}
}

func TestNoRiskUnderCapacity(t *testing.T) {
	// 16 nodes, one per (channel, DR slot) ≤ 16 decoders per GW: zero risk
	// except channel overload from reusing DR5 on shared channels.
	p := smallProblem(8)
	a := flat(p)
	c := p.Evaluate(a)
	if c.DecoderRisk != 0 {
		t.Errorf("decoder risk = %v, want 0 at 8 nodes", c.DecoderRisk)
	}
	if c.Unconnected != 0 || c.SpanViolations != 0 {
		t.Errorf("cost = %+v", c)
	}
	if !c.Feasible() {
		t.Error("assignment must be feasible")
	}
}

func TestDecoderRiskAboveCapacity(t *testing.T) {
	// 20 nodes all hitting both 16-decoder gateways on the same homo
	// channel plan: k_j = 20 both, φ_j = 4, Φ_i = 4 per node → Σ = 80.
	p := smallProblem(20)
	a := flat(p)
	c := p.Evaluate(a)
	if c.DecoderRisk != 80 {
		t.Errorf("decoder risk = %v, want 80 (20 nodes × risk 4)", c.DecoderRisk)
	}
}

func TestHeterogeneousPlanCutsRisk(t *testing.T) {
	// Splitting the gateways onto disjoint halves of the band halves each
	// load: k_j = 10 ≤ 16 → zero decoder risk (Strategy ②'s effect).
	p := smallProblem(20)
	a := flat(p)
	a.GWChannels[0] = []int{0, 1, 2, 3}
	a.GWChannels[1] = []int{4, 5, 6, 7}
	c := p.Evaluate(a)
	if c.DecoderRisk != 0 {
		t.Errorf("decoder risk = %v, want 0 after splitting", c.DecoderRisk)
	}
	if c.Unconnected != 0 {
		t.Errorf("all nodes still connect: %+v", c)
	}
}

func TestUnconnectedPenalty(t *testing.T) {
	p := smallProblem(2)
	p.Nodes[1].MaxDR = []int{-1, -1} // out of range entirely
	a := flat(p)
	c := p.Evaluate(a)
	if c.Unconnected != 1 {
		t.Errorf("unconnected = %d, want 1", c.Unconnected)
	}
	if c.Feasible() {
		t.Error("unconnected node ⇒ infeasible")
	}
	if c.Total() < wUnconnected {
		t.Error("connectivity must dominate the total cost")
	}
}

func TestRingRespectsReachability(t *testing.T) {
	// A node that reaches gateway 0 only at DR ≤ 2: assigning DR5 breaks
	// the link.
	p := smallProblem(1)
	p.Nodes[0].MaxDR = []int{2, -1}
	a := flat(p)
	a.NodeRing[0] = 5
	if c := p.Evaluate(a); c.Unconnected != 1 {
		t.Errorf("DR5 beyond reach must disconnect, got %+v", c)
	}
	a.NodeRing[0] = 2
	if c := p.Evaluate(a); c.Unconnected != 0 {
		t.Errorf("DR2 within reach must connect, got %+v", c)
	}
}

func TestSpanViolation(t *testing.T) {
	p := testbedProblem()
	a := &Assignment{
		GWChannels:  [][]int{{0, 23}}, // ~4.7 MHz span ≫ 1.6 MHz
		NodeChannel: []int{0},
		NodeRing:    []int{5},
	}
	c := p.Evaluate(a)
	if c.SpanViolations != 1 {
		t.Errorf("span violations = %d, want 1", c.SpanViolations)
	}
	// Too many channels also violates.
	a2 := &Assignment{
		GWChannels:  [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		NodeChannel: []int{0},
		NodeRing:    []int{5},
	}
	if c := p.Evaluate(a2); c.SpanViolations != 1 {
		t.Errorf("9 channels on 8 chains: %+v", c)
	}
	// Out-of-range channel index.
	a3 := &Assignment{
		GWChannels:  [][]int{{-1}},
		NodeChannel: []int{0},
		NodeRing:    []int{5},
	}
	if c := p.Evaluate(a3); c.SpanViolations != 1 {
		t.Errorf("bad channel index: %+v", c)
	}
}

func TestChannelOverload(t *testing.T) {
	// Two nodes with identical (channel, DR): overload 1.
	p := smallProblem(2)
	a := flat(p)
	a.NodeChannel[1] = a.NodeChannel[0]
	a.NodeRing[1] = a.NodeRing[0]
	c := p.Evaluate(a)
	if c.ChannelOverload != 1 {
		t.Errorf("overload = %v, want 1", c.ChannelOverload)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := smallProblem(3)
	a := flat(p)
	b := a.Clone()
	b.GWChannels[0][0] = 7
	b.NodeChannel[0] = 5
	if a.GWChannels[0][0] == 7 || a.NodeChannel[0] == 5 {
		t.Error("Clone must deep-copy")
	}
}

func TestBounds(t *testing.T) {
	p := smallProblem(1)
	if p.TheoreticalCapacity() != 48 {
		t.Errorf("oracle = %d, want 48", p.TheoreticalCapacity())
	}
	if p.DecoderBound() != 32 {
		t.Errorf("decoder bound = %d, want 32", p.DecoderBound())
	}
}

func TestFractionalTrafficAggregation(t *testing.T) {
	// Cluster nodes: one NodeSpec standing for 10 users with traffic 0.5
	// each. Risk scales by traffic.
	p := smallProblem(0)
	for i := 0; i < 4; i++ {
		p.Nodes = append(p.Nodes, NodeSpec{Traffic: 10, MaxDR: []int{5, 5}})
	}
	a := flat(p)
	c := p.Evaluate(a)
	// k_j = 40, φ = 24, Φ_i = 24 weighted by traffic 10 → 4×240 = 960.
	if c.DecoderRisk != 960 {
		t.Errorf("risk = %v, want 960", c.DecoderRisk)
	}
}

func TestGatewaySpecFromChipset(t *testing.T) {
	// The planner builds specs straight from Table 4 profiles; sanity-check
	// the translation used across experiments.
	cs := radio.SX1302
	spec := GatewaySpec{Decoders: cs.Decoders, MaxChannels: cs.RxChains, SpanHz: cs.SpanHz}
	if spec.Decoders != 16 || spec.MaxChannels != 8 || spec.SpanHz != 1_600_000 {
		t.Errorf("spec = %+v", spec)
	}
	_ = lora.DR5
}
