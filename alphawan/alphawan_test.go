package alphawan_test

import (
	"math"
	"testing"
	"time"

	"github.com/alphawan/alphawan/alphawan"
)

// TestPublicAPIQuickstart exercises the documented happy path end to end
// through the facade only: build → probe → plan → re-probe.
func TestPublicAPIQuickstart(t *testing.T) {
	env := alphawan.Urban(1)
	env.ShadowSigma = 0
	net := alphawan.NewNetwork(1, env)
	op := net.AddOperator()
	cfgs := alphawan.StandardConfigs(alphawan.AS923, 4, op.Sync)
	for i := 0; i < 4; i++ {
		if _, err := op.AddGateway(alphawan.RAK7268CV2, alphawan.Pt(float64(i)*5, 0), cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	id := 0
	for ch := 0; ch < 8; ch++ {
		for dr := alphawan.DR0; dr <= alphawan.DR5; dr++ {
			ang := 2 * math.Pi * float64(id) / 48
			op.AddNode(alphawan.Pt(7.5+150*math.Cos(ang), 150*math.Sin(ang)),
				[]alphawan.Channel{alphawan.AS923.Channel(ch)}, dr)
			id++
		}
	}
	net.LearningPhase(0, alphawan.Second)
	before := net.CapacityProbe(net.Sim.Now() + 5*alphawan.Second)
	if before[op.ID] != 16 {
		t.Fatalf("standard capacity = %d, want the 16-decoder cap", before[op.ID])
	}
	plan, err := alphawan.Plan(alphawan.PlanInput{
		Log:             op.Server.Log(),
		Channels:        alphawan.AS923.AllChannels(),
		Gateways:        op.GatewayInfo(),
		Sync:            op.Sync,
		TrafficOverride: 1,
		NodeSide:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.ApplyGatewayConfigs(plan.GWConfigs); err != nil {
		t.Fatal(err)
	}
	op.ApplyNodePlans(plan.NodePlans)
	after := net.CapacityProbe(net.Sim.Now() + 10*alphawan.Second)
	if after[op.ID] != 48 {
		t.Fatalf("planned capacity = %d, want the 48-user oracle", after[op.ID])
	}
}

// TestPublicAPIMaster exercises the TCP Master through the facade.
func TestPublicAPIMaster(t *testing.T) {
	secret := []byte("s")
	m, err := alphawan.NewMaster("127.0.0.1:0", secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := alphawan.DialMaster(m.Addr().String(), "op1", secret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	alloc, err := c.RequestPlan(alphawan.BandSpecOf(alphawan.AS923), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Channels()) == 0 {
		t.Error("allocation must carry channels")
	}
}

// TestPublicAPIExperiments composes, through the facade alone, the
// two-operator city the benchmark's node-city workload builds: standard
// Testbed plans on RAK7268CV2 gateways placed with Pt, statically
// provisioned data rates, then a short run of Poisson traffic whose
// outcome each operator must account for packet by packet.
func TestPublicAPIExperiments(t *testing.T) {
	env := alphawan.Urban(1)
	env.Exponent = 3.0
	env.ShadowSigma = 6
	net := alphawan.NewNetwork(1, env)
	deploy := func(gws, phys int, x0, y0 float64, seed int64) *alphawan.Operator {
		op := net.AddOperator()
		cfgs := alphawan.StandardConfigs(alphawan.Testbed, gws, op.Sync)
		for i := 0; i < gws; i++ {
			pos := alphawan.Pt(x0+float64(i%5)*425, y0+float64(i/5)*600)
			if _, err := op.AddGateway(alphawan.RAK7268CV2, pos, cfgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		op.UniformNodesMargin(phys, 2100, 1600, alphawan.Testbed.AllChannels(), seed, 10)
		for i, nd := range op.Nodes {
			if i%3 != 0 {
				nd.DR = alphawan.DR(i % 3)
			}
		}
		op.AssignNodesToGatewayPlans()
		return op
	}
	a := deploy(10, 60, 200, 200, 1)
	b := deploy(5, 30, 412, 500, 2)
	if a.Sync == b.Sync {
		t.Fatal("co-located operators share a sync word")
	}

	covered := map[alphawan.Channel]bool{}
	for _, gw := range a.Gateways {
		if gw.Config().Sync != a.Sync {
			t.Errorf("gateway %d filters sync %v, want its operator's %v", gw.ID, gw.Config().Sync, a.Sync)
		}
		for _, ch := range gw.Config().Channels {
			covered[ch] = true
		}
	}
	if len(covered) != alphawan.Testbed.Channels {
		t.Errorf("standard plans cover %d channels, want all %d of the band", len(covered), alphawan.Testbed.Channels)
	}

	net.RunBackgroundTraffic(0, 60*alphawan.Second, 10*alphawan.Second)
	for _, op := range []*alphawan.Operator{a, b} {
		s := net.Col.Network(op.ID)
		lost := 0
		for _, n := range s.Losses {
			lost += n
		}
		if s.Received == 0 || s.Sent != s.Received+lost {
			t.Errorf("operator %d: sent %d, received %d, lost %d", op.ID, s.Sent, s.Received, lost)
		}
	}
}

// TestPublicAPIRegions sanity-checks the exported datasets.
func TestPublicAPIRegions(t *testing.T) {
	if alphawan.AS923.TheoreticalCapacity() != 48 {
		t.Error("AS923 oracle")
	}
	if alphawan.MHz(923.2) != alphawan.AS923.Channel(0).Center {
		t.Error("MHz helper")
	}
	if alphawan.RAK7268CV2.PracticalCapacity() != 16 {
		t.Error("case-study gateway decoders")
	}
}
