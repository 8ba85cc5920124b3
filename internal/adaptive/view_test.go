package adaptive

import (
	"testing"

	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// chaosScenario composes the shrunken two-operator network the view
// test observes: one 8-decoder gateway per operator on the shared AS923
// grid, with the demo fault plan attached.
func chaosScenario(t *testing.T, seed int64) (*sim.Network, *View) {
	t.Helper()
	n := sim.New(seed, phy.Urban(seed))
	channels := region.AS923.AllChannels()
	for i := 0; i < 2; i++ {
		op := n.AddOperator()
		cfg := baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]
		if _, err := op.AddGateway(radio.Models[2], phy.Pt(float64(i)*150, 0), cfg); err != nil {
			t.Fatal(err)
		}
		op.UniformNodes(12, 2500, 2500, channels, seed+int64(i))
	}
	view := new(View)
	inj, err := faults.Attach(n, faults.DemoPlan())
	if err != nil {
		t.Fatal(err)
	}
	view.WatchFaults(inj)
	return n, view
}

// TestViewFaultState pins the epoch/up-down/decoder-cap bookkeeping
// against the demo plan's schedule: the epoch moves once per outage or
// degrade transition (backhaul and downlink episodes are invisible to
// the planner and must not move it), and the mid-run state answers
// match the active episodes.
func TestViewFaultState(t *testing.T) {
	n, view := chaosScenario(t, 6)
	if view.Epoch() != 0 {
		t.Fatalf("epoch %d before the run", view.Epoch())
	}
	// Demo plan: outage of gw0 over [6,9), degrade of gw1 to 4 over
	// [4,14). Probe mid-episode state from the DES clock.
	type probe struct {
		gw0Down bool
		gw1Cap  int
	}
	probes := map[des.Time]probe{}
	for _, at := range []des.Time{5 * des.Second, 7 * des.Second, 16 * des.Second} {
		at := at
		n.Sim.At(at, func() {
			probes[at] = probe{gw0Down: view.GatewayDown(0), gw1Cap: view.DecoderCap(1)}
		})
	}
	n.RunBackgroundTraffic(0, 20*des.Second, des.Second)
	want := map[des.Time]probe{
		5 * des.Second:  {gw0Down: false, gw1Cap: 4},
		7 * des.Second:  {gw0Down: true, gw1Cap: 4},
		16 * des.Second: {gw0Down: false, gw1Cap: 0},
	}
	for at, w := range want {
		if probes[at] != w {
			t.Errorf("at %v: state %+v, want %+v", at, probes[at], w)
		}
	}
	// 2 transitions each for the outage and the degrade; the backhaul
	// and downlink episodes must not move the epoch.
	if got := view.Epoch(); got != 4 {
		t.Errorf("epoch %d after the run, want 4", got)
	}
	if view.GatewayDown(0) || view.GatewayDown(1) {
		t.Error("gateways still down after every episode ended")
	}
	if view.DecoderCap(1) != 0 {
		t.Error("decoder cap still active after every episode ended")
	}
}
