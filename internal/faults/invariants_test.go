package faults

import (
	"strings"
	"testing"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/radio"
)

// TestCleanRunHasNoViolations is the checker's own false-positive guard:
// a faultless run must come out clean.
func TestCleanRunHasNoViolations(t *testing.T) {
	n := testNet(t, 2, 10)
	inv := Watch(n)
	runTraffic(n, 10*des.Second)
	if v := inv.Finish(); len(v) != 0 {
		t.Errorf("clean run reported violations: %v", v)
	}
	if inv.Started() == 0 {
		t.Error("checker observed no transmissions")
	}
}

// TestOutcomeConservationViolations drives the exactly-once checks
// directly through the topics the checker subscribes to.
func TestOutcomeConservationViolations(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)

	tx := &medium.Transmission{ID: 900_001, End: des.Second}
	// Double start.
	n.Med.TXStarts.Publish(tx)
	n.Med.TXStarts.Publish(tx)
	// Double outcome.
	n.Col.Outcomes.Publish(metrics.Outcome{TX: tx, Received: true})
	n.Col.Outcomes.Publish(metrics.Outcome{TX: tx, Received: true})
	// Restart after outcome.
	n.Med.TXStarts.Publish(tx)
	// Outcome with no start at all.
	orphan := &medium.Transmission{ID: 900_002}
	n.Col.Outcomes.Publish(metrics.Outcome{TX: orphan})

	got := strings.Join(inv.Violations(), "\n")
	for _, want := range []string{"started twice", "finalized twice", "restarted", "no start"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q violation in:\n%s", want, got)
		}
	}
}

// TestFinishFlagsMissingOutcome asserts a transmission whose decode
// deadline passed without an outcome is reported, while one still on the
// air at cutoff is not.
func TestFinishFlagsMissingOutcome(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)
	n.Med.TXStarts.Publish(&medium.Transmission{ID: 1, End: des.Second})
	n.Sim.RunUntil(10 * des.Second)
	inFlight := &medium.Transmission{ID: 2, End: 30 * des.Second}
	n.Med.TXStarts.Publish(inFlight)
	v := strings.Join(inv.Finish(), "\n")
	if !strings.Contains(v, "tx 1 started but never got an outcome") {
		t.Errorf("missing stale-tx violation in:\n%s", v)
	}
	if strings.Contains(v, "tx 2") {
		t.Errorf("in-flight tx flagged:\n%s", v)
	}
}

// TestFCntMonotonicity asserts regressions and repeats on the served
// stream are violations while increases are not.
func TestFCntMonotonicity(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)
	op := n.Operators[0]
	dev, _ := op.Server.Device(op.Nodes[0].DevAddr)
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 5})
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 6})
	if v := inv.Violations(); len(v) != 0 {
		t.Fatalf("monotonic FCnts flagged: %v", v)
	}
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 6})
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 2})
	if got := len(inv.Violations()); got != 2 {
		t.Errorf("%d violations, want 2 (repeat + regression): %v", got, inv.Violations())
	}
	// A different device with a lower FCnt is fine.
	dev2, _ := op.Server.Device(op.Nodes[1].DevAddr)
	op.Server.Served.Publish(netserver.Data{Dev: dev2, FCnt: 1})
	if got := len(inv.Violations()); got != 2 {
		t.Errorf("cross-device FCnt flagged: %v", inv.Violations())
	}
}

// TestDecoderOverAllocation drives the occupancy check directly: a pool
// degraded below its busy count may drain but must not be seen growing.
func TestDecoderOverAllocation(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)
	r := n.Operators[0].Gateways[0].Radio()
	p := n.Operators[0].Gateways[0].Port()

	// Occupy two decoders (judgement deadlines far in the future, and the
	// sim never advances, so they stay busy).
	lockOne := func(id int64) bool {
		return r.LockOn(radio.Meta{ID: id, End: des.Minute},
			func() radio.DecodeVerdict { return radio.VerdictOK })
	}
	for i := int64(0); i < 2; i++ {
		if !lockOne(i) {
			t.Fatalf("lock-on %d refused", i)
		}
	}
	// Establish the baseline observation while the pool is healthy.
	inv.occupancy(p)
	// Degrade below the busy count: observing the drained state is legal
	// (drain semantics) ...
	r.SetDecoderLimit(1)
	inv.occupancy(p)
	if len(inv.Violations()) != 0 {
		t.Fatalf("legal drain flagged: %v", inv.Violations())
	}
	// ... but growth above the cap is a violation.
	r.SetDecoderLimit(3)
	if !lockOne(2) {
		t.Fatal("third lock-on refused under limit 3")
	}
	r.SetDecoderLimit(1)
	inv.occupancy(p)
	v := strings.Join(inv.Violations(), "\n")
	if !strings.Contains(v, "beyond degraded limit") {
		t.Errorf("missing over-allocation violation in:\n%s", v)
	}
}

// TestRecoveryCheck exercises the bounded-recovery comparison with a
// hand-built delivery histogram.
func TestRecoveryCheck(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)
	ep := &Episode{ID: 1, Kind: KindGatewayOutage, StartS: 20, EndS: 25}
	w := inv.RecoveryWindow
	// Healthy pre-episode throughput: buckets 1-3 at 10/bucket.
	for b := int64(1); b <= 3; b++ {
		inv.delivered[b] = 10
	}
	// Collapsed post-episode throughput within the measured window.
	for b := int64(7); b <= 12; b++ {
		inv.delivered[b] = 1
	}
	inv.lastBucket = 12
	closed := window{ep: ep, open: 20 * des.Second, close: 25 * des.Second, closed: true}
	inv.WatchInjector(&Injector{windows: []window{closed}})
	inv.checkRecovery(13 * w)
	v := strings.Join(inv.Violations(), "\n")
	if !strings.Contains(v, "did not recover") {
		t.Errorf("missing recovery violation in:\n%s", v)
	}

	// Recovered throughput passes.
	inv2 := Watch(testNet(t, 2, 2))
	for b := int64(1); b <= 3; b++ {
		inv2.delivered[b] = 10
	}
	for b := int64(7); b <= 12; b++ {
		inv2.delivered[b] = 9
	}
	inv2.lastBucket = 12
	inv2.WatchInjector(&Injector{windows: []window{closed}})
	inv2.checkRecovery(13 * w)
	if v := inv2.Violations(); len(v) != 0 {
		t.Errorf("recovered throughput flagged: %v", v)
	}

	// An episode that never ended is skipped.
	inv3 := Watch(testNet(t, 3, 2))
	inv3.WatchInjector(&Injector{windows: []window{{ep: ep, open: 20 * des.Second}}})
	inv3.checkRecovery(13 * w)
	if v := inv3.Violations(); len(v) != 0 {
		t.Errorf("open episode flagged: %v", v)
	}
}

// TestPlanSwapSafety drives the replan-safety check (check 5) through
// deliberate stub violations: a packet finalized by both the old and the
// new plan, a packet lost across the swap, and an FCnt regression after
// a mid-run channel reassignment — plus the clean-swap false-positive
// guard.
func TestPlanSwapSafety(t *testing.T) {
	// Clean swap: in-flight packet finalized exactly once afterwards.
	n := testNet(t, 1, 2)
	inv := Watch(n)
	tx := &medium.Transmission{ID: 50_001, End: des.Second}
	n.Med.TXStarts.Publish(tx)
	inv.NotePlanSwap(n.Sim.Now())
	n.Col.Outcomes.Publish(metrics.Outcome{TX: tx, Received: true})
	// Still on the air at cutoff: tracked but not stale, not a loss.
	inFlight := &medium.Transmission{ID: 50_002, End: des.Minute}
	n.Med.TXStarts.Publish(inFlight)
	inv.NotePlanSwap(n.Sim.Now())
	if v := inv.Finish(); len(v) != 0 {
		t.Errorf("clean swap reported violations: %v", v)
	}

	// Double count: the stub finalizes the same packet under both plans.
	n2 := testNet(t, 2, 2)
	inv2 := Watch(n2)
	tx2 := &medium.Transmission{ID: 50_003, End: des.Second}
	n2.Med.TXStarts.Publish(tx2)
	inv2.NotePlanSwap(n2.Sim.Now())
	n2.Col.Outcomes.Publish(metrics.Outcome{TX: tx2, Received: true})
	n2.Col.Outcomes.Publish(metrics.Outcome{TX: tx2, Received: false})
	got := strings.Join(inv2.Violations(), "\n")
	if !strings.Contains(got, "finalized 2 times across a plan swap") {
		t.Errorf("missing double-count violation in:\n%s", got)
	}

	// Loss: the stub drops the packet on the floor during the swap.
	n3 := testNet(t, 3, 2)
	inv3 := Watch(n3)
	tx3 := &medium.Transmission{ID: 50_004, End: des.Second}
	n3.Med.TXStarts.Publish(tx3)
	inv3.NotePlanSwap(n3.Sim.Now())
	n3.Sim.RunUntil(10 * des.Second)
	got = strings.Join(inv3.Finish(), "\n")
	if !strings.Contains(got, "tx 50004 in flight at a plan swap was never finalized") {
		t.Errorf("missing swap-loss violation in:\n%s", got)
	}

	// FCnt monotonicity holds straight through a swap: increases stay
	// legal, a post-swap regression is still flagged.
	n4 := testNet(t, 4, 2)
	inv4 := Watch(n4)
	op := n4.Operators[0]
	dev, _ := op.Server.Device(op.Nodes[0].DevAddr)
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 5})
	inv4.NotePlanSwap(n4.Sim.Now())
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 6})
	if v := inv4.Violations(); len(v) != 0 {
		t.Fatalf("monotonic FCnts across swap flagged: %v", v)
	}
	op.Server.Served.Publish(netserver.Data{Dev: dev, FCnt: 4})
	if got := len(inv4.Violations()); got != 1 {
		t.Errorf("%d violations, want 1 (post-swap regression): %v", got, inv4.Violations())
	}
}

// TestViolationCap asserts the report is bounded and the overflow is
// summarized.
func TestViolationCap(t *testing.T) {
	n := testNet(t, 1, 2)
	inv := Watch(n)
	inv.MaxViolations = 3
	for i := 0; i < 10; i++ {
		tx := &medium.Transmission{ID: int64(1000 + i)}
		n.Col.Outcomes.Publish(metrics.Outcome{TX: tx})
	}
	v := inv.Finish()
	if len(v) != 4 {
		t.Fatalf("got %d entries, want 3 + summary", len(v))
	}
	if !strings.Contains(v[3], "7 more violations") {
		t.Errorf("missing overflow summary: %q", v[3])
	}
}
