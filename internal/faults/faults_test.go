package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/traffic"
)

// testNet composes the canonical two-operator chaos testbed: one
// 8-decoder gateway per operator on the shared AS923 grid, nodesPerOp
// uniformly placed nodes each.
func testNet(t *testing.T, seed int64, nodesPerOp int) *sim.Network {
	t.Helper()
	n := sim.New(seed, phy.Urban(seed))
	for i := 0; i < 2; i++ {
		op := n.AddOperator()
		cfg := baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]
		if _, err := op.AddGateway(radio.Models[2], phy.Pt(float64(i)*150, 0), cfg); err != nil {
			t.Fatalf("AddGateway: %v", err)
		}
		op.UniformNodes(nodesPerOp, 2500, 2500, region.AS923.AllChannels(), seed+int64(i))
	}
	return n
}

// demoPlan loads the example chaos schedule alphawan-sim's -faults runs:
// an outage of gateway 0 over [6,9) s, gateway 1's decoder pool degraded
// to 4 over [4,14) s, a lossy duplicate-and-reorder backhaul over
// [2,18) s, and flaky downlink scheduling over [0,20) s.
func demoPlan(t *testing.T) *Plan {
	t.Helper()
	p, err := LoadPlan("../../examples/faultplans/demo.json")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runTraffic(n *sim.Network, window des.Time) {
	for _, op := range n.Operators {
		for _, nd := range op.Nodes {
			traffic.StartPoisson(n.Med, nd, 0, window, des.Second)
		}
	}
	n.Sim.RunUntil(window + des.Minute)
}

func TestParsePlanValid(t *testing.T) {
	p, err := ParsePlan([]byte(`{"episodes":[
		{"kind":"gateway-outage","gateway":0,"start_s":1,"end_s":2},
		{"kind":"backhaul","start_s":0,"end_s":5,"drop":0.5}
	]}`))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(p.Episodes) != 2 {
		t.Fatalf("got %d episodes, want 2", len(p.Episodes))
	}
	if p.Episodes[0].ID != 1 || p.Episodes[1].ID != 2 {
		t.Errorf("episode IDs not assigned: %d, %d", p.Episodes[0].ID, p.Episodes[1].ID)
	}
	if !p.Episodes[0].Targets(0) || p.Episodes[0].Targets(1) {
		t.Error("gateway targeting wrong")
	}
	if !p.Episodes[1].Targets(7) {
		t.Error("nil gateway should target everything")
	}
	if p.Episodes[0].Start() != des.Second || p.Episodes[0].End() != 2*des.Second {
		t.Errorf("window conversion wrong: [%v,%v)", p.Episodes[0].Start(), p.Episodes[0].End())
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   `{"episodes":[{"kind":"flood","start_s":0,"end_s":1}]}`,
		"empty window":   `{"episodes":[{"kind":"gateway-outage","start_s":2,"end_s":2}]}`,
		"negative start": `{"episodes":[{"kind":"gateway-outage","start_s":-1,"end_s":2}]}`,
		"prob > 1":       `{"episodes":[{"kind":"backhaul","start_s":0,"end_s":1,"drop":1.5}]}`,
		"neg delay":      `{"episodes":[{"kind":"downlink","start_s":0,"end_s":1,"delay_ms":-5}]}`,
		"no decoders":    `{"episodes":[{"kind":"decoder-degrade","start_s":0,"end_s":1}]}`,
		"no-op backhaul": `{"episodes":[{"kind":"backhaul","start_s":0,"end_s":1}]}`,
		"no-op downlink": `{"episodes":[{"kind":"downlink","start_s":0,"end_s":1}]}`,
		"unknown field":  `{"episodes":[{"kind":"gateway-outage","start_s":0,"end_s":1,"gw":3}]}`,
		"not json":       `episodes:`,
	}
	for name, in := range cases {
		if _, err := ParsePlan([]byte(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestLoadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"episodes":[{"kind":"gateway-outage","start_s":0,"end_s":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	if len(p.Episodes) != 1 {
		t.Fatalf("got %d episodes", len(p.Episodes))
	}
	if _, err := LoadPlan(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestScale(t *testing.T) {
	base := demoPlan(t)
	if got := base.Scale(0); !got.Empty() {
		t.Errorf("Scale(0) should be empty, got %d episodes", len(got.Episodes))
	}
	half := base.Scale(0.5)
	for i := range half.Episodes {
		e, b := &half.Episodes[i], findKind(base, half.Episodes[i].Kind)
		switch e.Kind {
		case KindBackhaul:
			if e.Drop != b.Drop*0.5 {
				t.Errorf("drop not halved: %g", e.Drop)
			}
		case KindGatewayOutage, KindDecoderDegrade:
			want := b.StartS + (b.EndS-b.StartS)*0.5
			if e.EndS != want {
				t.Errorf("%s: end %g, want %g", e.Kind, e.EndS, want)
			}
		}
	}
	// Intensity above 1 caps probabilities at 1 and durations at 1×.
	big := base.Scale(20)
	for i := range big.Episodes {
		e := &big.Episodes[i]
		if e.Drop > 1 || e.Fail > 1 {
			t.Errorf("%s: probability above 1 after scaling", e.Kind)
		}
		b := findKind(base, e.Kind)
		if e.EndS != b.EndS {
			t.Errorf("%s: duration extended beyond 1×", e.Kind)
		}
	}
	if ids := big.Episodes[0].ID; ids != 1 {
		t.Errorf("scaled plan not renumbered: first ID %d", ids)
	}
	if got := (*Plan)(nil).Scale(1); !got.Empty() {
		t.Error("nil plan scales to empty")
	}
}

func findKind(p *Plan, k Kind) *Episode {
	for i := range p.Episodes {
		if p.Episodes[i].Kind == k {
			return &p.Episodes[i]
		}
	}
	return nil
}

func TestEpisodeString(t *testing.T) {
	p := demoPlan(t)
	s := p.Episodes[0].String()
	if !strings.Contains(s, "ep1") || !strings.Contains(s, "gateway-outage") || !strings.Contains(s, "gw=0") {
		t.Errorf("unexpected label %q", s)
	}
	if s := p.Episodes[2].String(); !strings.Contains(s, "gw=all") {
		t.Errorf("all-gateway episode label %q", s)
	}
}

func TestAttachRejectsUnknownGateway(t *testing.T) {
	n := testNet(t, 1, 4)
	gw := 99
	p := &Plan{Episodes: []Episode{{Kind: KindGatewayOutage, Gateway: &gw, StartS: 0, EndS: 1}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(n, p); err == nil {
		t.Error("expected unknown-gateway error")
	}
}

// TestEmptyPlanIsNoOp pins the byte-identity contract down at the
// collector level: attaching an empty plan must not change a single
// outcome relative to not attaching anything.
func TestEmptyPlanIsNoOp(t *testing.T) {
	run := func(attach bool) (int, int) {
		n := testNet(t, 3, 8)
		if attach {
			inj, err := Attach(n, &Plan{})
			if err != nil {
				t.Fatalf("Attach: %v", err)
			}
			if inj.Stats() != (Stats{}) {
				t.Error("empty plan produced interventions")
			}
		}
		runTraffic(n, 10*des.Second)
		tot := n.Col.Total()
		return tot.Sent, tot.Received
	}
	s1, r1 := run(false)
	s2, r2 := run(true)
	if s1 != s2 || r1 != r2 {
		t.Errorf("empty plan changed the run: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

// TestGatewayOutageAttribution asserts the tentpole's drop attribution:
// every DropGatewayDown inside the episode window carries the episode
// id, and the gateway resumes delivering after the window.
func TestGatewayOutageAttribution(t *testing.T) {
	n := testNet(t, 1, 8)
	gw0 := 0
	p := &Plan{Episodes: []Episode{{Kind: KindGatewayOutage, Gateway: &gw0, StartS: 3, EndS: 6}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(n, p); err != nil {
		t.Fatal(err)
	}
	downDrops, attributed := 0, 0
	n.Med.Drops.Subscribe(func(d medium.Drop) {
		if d.Reason != radio.DropGatewayDown {
			return
		}
		downDrops++
		if d.Port.Index() == 0 && d.Episode == 1 {
			attributed++
		}
		if d.Port.Index() != 0 {
			t.Errorf("outage drop at untargeted gateway %d", d.Port.Index())
		}
	})
	deliveredAfter := 0
	n.Med.Deliveries.Subscribe(func(d medium.Delivery) {
		if d.Port.Index() == 0 && n.Sim.Now() > 6*des.Second {
			deliveredAfter++
		}
	})
	runTraffic(n, 12*des.Second)
	if downDrops == 0 {
		t.Fatal("no gateway-down drops during the outage")
	}
	if attributed != downDrops {
		t.Errorf("%d/%d down drops attributed to the episode", attributed, downDrops)
	}
	if deliveredAfter == 0 {
		t.Error("gateway 0 never delivered after recovery")
	}
}

// TestDecoderDegrade asserts the pool cap is applied for the window,
// lifted afterwards, and never over-allocated (the invariant checker
// watches the same run).
func TestDecoderDegrade(t *testing.T) {
	n := testNet(t, 1, 20)
	gw1 := 1
	p := &Plan{Episodes: []Episode{{Kind: KindDecoderDegrade, Gateway: &gw1, StartS: 2, EndS: 8, Decoders: 2}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	inv := Watch(n)
	inv.WatchInjector(inj)
	r := n.Operators[1].Gateways[0].Radio()
	maxDuring := 0
	n.Med.LockOns.Subscribe(func(e medium.LockOnEvent) {
		now := n.Sim.Now()
		if e.Port.Index() == 1 && now > 2*des.Second && now < 8*des.Second {
			if in := r.InUse(); in > maxDuring {
				maxDuring = in
			}
		}
	})
	n.Sim.At(5*des.Second, func() {
		if got := r.DecoderLimit(); got != 2 {
			t.Errorf("mid-window decoder limit %d, want 2", got)
		}
	})
	runTraffic(n, 10*des.Second)
	if got := r.DecoderLimit(); got != r.Chipset().Decoders {
		t.Errorf("post-window decoder limit %d, want full pool %d", got, r.Chipset().Decoders)
	}
	if maxDuring > 2 {
		t.Errorf("pool exceeded degraded cap: %d decoders busy", maxDuring)
	}
	if v := inv.Finish(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestBackhaulDrop asserts a certain-drop backhaul episode starves the
// server while the air-level collector still counts receptions.
func TestBackhaulDrop(t *testing.T) {
	n := testNet(t, 1, 8)
	p := &Plan{Episodes: []Episode{{Kind: KindBackhaul, StartS: 0, EndS: 30, Drop: 1}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	runTraffic(n, 10*des.Second)
	if n.Col.Total().Received == 0 {
		t.Fatal("nothing received on air; scenario too weak for the test")
	}
	for _, op := range n.Operators {
		if got := op.Server.Stats().Uplinks; got != 0 {
			t.Errorf("op %d server saw %d uplinks through a 100%%-drop backhaul", op.ID, got)
		}
	}
	if inj.Stats().BackhaulDropped == 0 {
		t.Error("injector counted no drops")
	}
}

// TestBackhaulDuplicateAndDelay asserts duplicated/delayed datagrams
// reach the server as extra copies, and that dedup plus the replay guard
// keep served deliveries conserved — checked by the invariants.
func TestBackhaulDuplicateAndDelay(t *testing.T) {
	n := testNet(t, 1, 8)
	p := &Plan{Episodes: []Episode{{Kind: KindBackhaul, StartS: 0, EndS: 30, Duplicate: 1, DelayMS: 10, JitterMS: 5}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	inv := Watch(n)
	inv.WatchInjector(inj)
	runTraffic(n, 10*des.Second)
	st := inj.Stats()
	if st.BackhaulDuplicated == 0 || st.BackhaulDelayed == 0 {
		t.Fatalf("injector stats %+v: expected duplicates and delays", st)
	}
	totalUp, totalDup := 0, 0
	for _, op := range n.Operators {
		s := op.Server.Stats()
		totalUp += s.Uplinks
		totalDup += s.Duplicates + s.Replays
	}
	if totalUp == 0 || totalDup == 0 {
		t.Errorf("servers saw %d uplinks, %d dup/replays; duplication should inflate both", totalUp, totalDup)
	}
	if v := inv.Finish(); len(v) != 0 {
		t.Errorf("invariant violations under duplication: %v", v)
	}
}

// TestBackhaulReorder asserts held datagrams are swapped (not lost) and
// the flush at episode end releases a straggler.
func TestBackhaulReorder(t *testing.T) {
	n := testNet(t, 1, 8)
	p := &Plan{Episodes: []Episode{{Kind: KindBackhaul, StartS: 0, EndS: 5, Reorder: 1}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	inv := Watch(n)
	inv.WatchInjector(inj)
	runTraffic(n, 10*des.Second)
	delivered := n.Col.Total().Received
	if delivered == 0 {
		t.Fatal("no air-level deliveries")
	}
	totalUp := 0
	for _, op := range n.Operators {
		totalUp += op.Server.Stats().Uplinks
	}
	// Certain reorder holds every other datagram; the flush at 5 s plus
	// post-episode passthrough must conserve them all.
	if totalUp == 0 {
		t.Error("no uplinks reached the servers")
	}
	if inj.Stats().BackhaulReordered == 0 {
		t.Error("injector counted no reorders")
	}
	if v := inv.Finish(); len(v) != 0 {
		t.Errorf("invariant violations under reorder: %v", v)
	}
}

// TestDownlinkFaults asserts a certain-fail episode suppresses command
// application and a delay episode postpones it.
func TestDownlinkFaults(t *testing.T) {
	n := testNet(t, 1, 4)
	p := &Plan{Episodes: []Episode{{Kind: KindDownlink, StartS: 0, EndS: 5, Fail: 1}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	op := n.Operators[0]
	nd := op.Nodes[0]
	dev, _ := op.Server.Device(nd.DevAddr)
	// A NewChannelReq rewrites the node's channel 0 in place; a marker
	// frequency makes the application observable.
	marker := region.Channel{Center: 920_000_000, Bandwidth: lora.BW125}

	// Inside the window: the command batch is dropped.
	n.Sim.At(des.Second, func() {
		if err := op.Server.SendChannelPlan(dev, []region.Channel{marker}); err != nil {
			t.Errorf("SendChannelPlan: %v", err)
		}
	})
	n.Sim.At(2*des.Second, func() {
		if nd.Channels[0].Center == marker.Center {
			t.Error("command applied despite certain-fail episode")
		}
	})
	// After the window: applied normally.
	n.Sim.At(7*des.Second, func() {
		if err := op.Server.SendChannelPlan(dev, []region.Channel{marker}); err != nil {
			t.Errorf("SendChannelPlan: %v", err)
		}
	})
	n.Sim.RunUntil(10 * des.Second)
	if got := inj.Stats().CommandsDropped; got != 1 {
		t.Errorf("CommandsDropped = %d, want 1", got)
	}
	if nd.Channels[0].Center != marker.Center {
		t.Error("post-episode command not applied")
	}
}

func TestDownlinkDelay(t *testing.T) {
	n := testNet(t, 1, 4)
	p := &Plan{Episodes: []Episode{{Kind: KindDownlink, StartS: 0, EndS: 5, DelayMS: 500}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	op := n.Operators[0]
	nd := op.Nodes[0]
	dev, _ := op.Server.Device(nd.DevAddr)
	marker := region.Channel{Center: 920_000_000, Bandwidth: lora.BW125}
	n.Sim.At(des.Second, func() {
		if err := op.Server.SendChannelPlan(dev, []region.Channel{marker}); err != nil {
			t.Errorf("SendChannelPlan: %v", err)
		}
		if nd.Channels[0].Center == marker.Center {
			t.Error("command applied synchronously despite delay episode")
		}
	})
	n.Sim.RunUntil(10 * des.Second)
	if nd.Channels[0].Center != marker.Center {
		t.Error("delayed command never applied")
	}
	if got := inj.Stats().CommandsDelayed; got != 1 {
		t.Errorf("CommandsDelayed = %d, want 1", got)
	}
}

// TestChaosDeterminism asserts the full chaos stack is reproducible:
// same seed + same plan ⇒ identical intervention counters and identical
// outcomes.
func TestChaosDeterminism(t *testing.T) {
	run := func() (Stats, int, int) {
		n := testNet(t, 5, 10)
		inj, err := Attach(n, demoPlan(t))
		if err != nil {
			t.Fatal(err)
		}
		runTraffic(n, 20*des.Second)
		tot := n.Col.Total()
		return inj.Stats(), tot.Sent, tot.Received
	}
	st1, s1, r1 := run()
	st2, s2, r2 := run()
	if st1 != st2 || s1 != s2 || r1 != r2 {
		t.Errorf("chaos run diverged: %+v (%d,%d) vs %+v (%d,%d)", st1, s1, r1, st2, s2, r2)
	}
}

// TestFaultEventsPublished asserts every episode publishes exactly one
// begin and one end transition, in window order.
func TestFaultEventsPublished(t *testing.T) {
	n := testNet(t, 1, 4)
	p := demoPlan(t)
	inj, err := Attach(n, p)
	if err != nil {
		t.Fatal(err)
	}
	type transition struct {
		id     int64
		active bool
	}
	var seen []transition
	inj.Events.Subscribe(func(e FaultEvent) {
		seen = append(seen, transition{e.Episode.ID, e.Active})
		if e.At != n.Sim.Now() {
			t.Errorf("event timestamp %v != now %v", e.At, n.Sim.Now())
		}
	})
	active := inj.Active()
	if len(active) != 0 {
		t.Errorf("episodes active before the run: %v", active)
	}
	n.Sim.At(5*des.Second, func() {
		// At t=5 s the demo plan has ep2 (degrade), ep3 (backhaul) and
		// ep4 (downlink) open.
		if got := len(inj.Active()); got != 3 {
			t.Errorf("Active() at 5s = %d episodes, want 3", got)
		}
	})
	runTraffic(n, 20*des.Second)
	counts := map[transition]int{}
	for _, tr := range seen {
		counts[tr]++
	}
	for _, ep := range p.Episodes {
		if counts[transition{ep.ID, true}] != 1 || counts[transition{ep.ID, false}] != 1 {
			t.Errorf("episode %d transitions begin=%d end=%d, want 1/1",
				ep.ID, counts[transition{ep.ID, true}], counts[transition{ep.ID, false}])
		}
	}
	if len(inj.Active()) != 0 {
		t.Error("episodes still active after the run")
	}
}

// TestInjectorFaultState pins the fault state the replanning controller
// reads against the demo plan's schedule: the epoch moves once per
// outage or degrade transition (backhaul and downlink episodes are
// invisible to the planner and must not move it), and the mid-run
// answers match the active episodes and the radio's installed cap.
func TestInjectorFaultState(t *testing.T) {
	n := testNet(t, 6, 12)
	inj, err := Attach(n, demoPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Epoch() != 0 {
		t.Fatalf("epoch %d before the run", inj.Epoch())
	}
	type probe struct {
		gw0Down bool
		gw1Cap  int
		limit   int
	}
	r := n.Operators[1].Gateways[0].Radio()
	probes := map[des.Time]probe{}
	for _, at := range []des.Time{5 * des.Second, 7 * des.Second, 16 * des.Second} {
		at := at
		n.Sim.At(at, func() {
			probes[at] = probe{gw0Down: inj.GatewayDown(0), gw1Cap: inj.DecoderCap(1), limit: r.DecoderLimit()}
		})
	}
	runTraffic(n, 20*des.Second)
	full := r.Chipset().Decoders
	want := map[des.Time]probe{
		5 * des.Second:  {gw0Down: false, gw1Cap: 4, limit: 4},
		7 * des.Second:  {gw0Down: true, gw1Cap: 4, limit: 4},
		16 * des.Second: {gw0Down: false, gw1Cap: 0, limit: full},
	}
	for at, w := range want {
		if probes[at] != w {
			t.Errorf("at %v: state %+v, want %+v", at, probes[at], w)
		}
	}
	if got := inj.Epoch(); got != 4 {
		t.Errorf("epoch %d after the run, want 4", got)
	}
	if inj.GatewayDown(0) || inj.GatewayDown(1) || inj.DecoderCap(1) != 0 {
		t.Error("fault state still set after every episode ended")
	}
}
