package experiments

import (
	"math"
	"sort"

	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/scenario"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/traffic"
)

// The evaluation's five testbeds, each built here and nowhere else: the §3
// controlled concurrency probe (clusterProbe, soloGateways), the
// single-link rig (oneRadio), co-located multi-network clusters
// (coexGateways, coexNetwork), the §5.1 144-node testbed (buildCity,
// plannedCity, cityProbe) and the mixed-provisioning city (cityOperator,
// emulateUsers, cityLoad).

// flatEnv is the controlled-probe environment: urban path loss without
// shadowing, so capacity experiments measure resource limits rather than
// fading luck.
func flatEnv(seed int64) phy.Environment {
	e := phy.Urban(seed)
	e.ShadowSigma = 0
	return e
}

// cotsModel is the default gateway (RAK7268CV2 / SX1302, 16 decoders).
var cotsModel = radio.Models[3]

// ringNodes deploys count nodes for the operator on rings centered at
// (cx, cy), cycling (channel, DR) pairs so that up to channels×6 nodes
// have unique settings. When count exceeds the number of unique pairs,
// later layers reuse settings from a much closer ring, so the capture
// effect (≥6 dB) resolves the resulting collisions deterministically —
// matching the paper's controlled concurrency probes beyond the oracle.
func ringNodes(op *sim.Operator, count int, cx, cy, r float64, channels []region.Channel) {
	pairs := len(channels) * lora.NumDRs
	for id := 0; id < count; id++ {
		layer := id / pairs
		radius := r / (1 + 1.5*float64(layer))
		ch := channels[id/lora.NumDRs%len(channels)]
		dr := lora.DR(id % lora.NumDRs)
		ang := 2 * math.Pi * float64(id%pairs) / float64(min(count, pairs))
		pos := phy.Pt(cx+radius*math.Cos(ang), cy+radius*math.Sin(ang))
		op.AddNode(pos, []region.Channel{ch}, dr)
	}
}

// clusterProbe is the §3 controlled concurrency probe: one operator on the
// flat environment with a cluster of model gateways 5 m apart running
// cfgs, and users ring nodes around it cycling channels, all sending at
// once. It returns how many packets the operator received.
func clusterProbe(seed int64, model radio.GatewayModel, cfgs []radio.Config, users int, channels []region.Channel) int {
	n := sim.New(seed, flatEnv(seed))
	op := n.AddOperator()
	for i, cfg := range cfgs {
		if _, err := op.AddGateway(model, phy.Pt(float64(i)*5, 0), cfg); err != nil {
			panic(err)
		}
	}
	ringNodes(op, users, float64(len(cfgs)-1)*2.5, 0, 150, channels)
	return n.CapacityProbe(5 * des.Second)[op.ID]
}

// soloGateways is the §3 rig for hand-placed nodes: it adds nets operators
// to an empty n, each with one standard-plan AS923 gateway, network k's at
// (8k, 0), and returns them.
func soloGateways(n *sim.Network, nets int) []*sim.Operator {
	for k := 0; k < nets; k++ {
		op := n.AddOperator()
		if _, err := op.AddGateway(cotsModel, phy.Pt(float64(k)*8, 0), baseline.StandardConfigs(region.AS923, 1, op.Sync)[0]); err != nil {
			panic(err)
		}
	}
	return n.Operators
}

// oneRadio is the single-link rig: one SX1302 radio at the origin behind
// ant, listening on channels for the public sync word. The returned set
// gains every node whose packet the radio delivers.
func oneRadio(s *des.Sim, med *medium.Medium, channels []region.Channel, ant phy.Antenna) map[medium.NodeID]bool {
	r, err := radio.New(s, radio.SX1302, radio.Config{Channels: channels, Sync: lora.SyncPublic})
	if err != nil {
		panic(err)
	}
	med.WirePort(med.Attach(r, phy.Pt(0, 0), ant))
	received := map[medium.NodeID]bool{}
	med.Deliveries.Subscribe(func(d medium.Delivery) { received[d.TX.Node] = true })
	return received
}

// coexGateways deploys network k's three co-located gateways at
// (10k + 3g, k) on chans: split 3/3/2 across them when split, the whole
// plan on each otherwise.
func coexGateways(op *sim.Operator, k int, chans []region.Channel, split bool) {
	for g, b := range [][2]int{{0, 3}, {3, 3}, {6, 2}} {
		cfg := radio.Config{Channels: chans}
		if split {
			cfg.Channels = chans[b[0] : b[0]+b[1]]
		}
		if _, err := op.AddGateway(cotsModel, phy.Pt(float64(k)*10+float64(g)*3, float64(k)), cfg); err != nil {
			panic(err)
		}
	}
}

// coexNetwork builds nets co-located networks of three gateways and 24
// users each, network k on the plan planFor(k) returns (split across its
// gateways or not), probes them all at once and returns each network's
// capacity in order. Links are shadowed: power disparity lets capture
// resolve some of the cross-network collisions, as in the real testbed.
func coexNetwork(seed int64, nets int, planFor func(k int) (chans []region.Channel, split bool)) []int {
	n := sim.New(seed, testbedEnv(seed))
	for k := 0; k < nets; k++ {
		op := n.AddOperator()
		chans, split := planFor(k)
		coexGateways(op, k, chans, split)
		// Distinct (channel, DR) settings within the network; each
		// network's DR set is offset so that (at least for small network
		// counts) settings stay distinct across networks.
		for i := 0; i < 24; i++ {
			ang := float64(i+24*k) / float64(24*nets)
			radius := 100 + float64((i*37+k*11)%250)
			op.AddNode(phy.Pt(radius*cosTau(ang), radius*sinTau(ang)),
				[]region.Channel{chans[i%8]}, lora.DR((i/8*2+k)%6))
		}
	}
	got := n.CapacityProbe(5 * des.Second)
	caps := make([]int, nets)
	for k, op := range n.Operators {
		caps[k] = got[op.ID]
	}
	return caps
}

func cosTau(x float64) float64 { return math.Cos(2 * math.Pi * x) }
func sinTau(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// testbedEnv approximates the paper's deployment (Figure 11): urban
// attenuation mild enough that gateways cover large parts of the 2.1 km ×
// 1.6 km area, with moderate shadowing for link diversity.
func testbedEnv(seed int64) phy.Environment {
	e := phy.Urban(seed)
	e.Exponent = 3.2
	e.ShadowSigma = 3
	return e
}

// gwGridPositions returns n gateway positions spread over the testbed
// area, five to a row.
func gwGridPositions(n int) []phy.Point {
	var pts []phy.Point
	cols := 5
	for i := 0; i < n; i++ {
		x := 200 + float64(i%cols)*425.0
		y := 200 + float64(i/cols)*600.0
		pts = append(pts, phy.Pt(x, y))
	}
	return pts
}

// gridOperator adds an operator with gws standard-plan gateways on the
// testbed grid.
func gridOperator(n *sim.Network, band region.Band, gws int) *sim.Operator {
	op := n.AddOperator()
	cfgs := baseline.StandardConfigs(band, gws, op.Sync)
	for i, pos := range gwGridPositions(gws) {
		if _, err := op.AddGateway(cotsModel, pos, cfgs[i]); err != nil {
			panic(err)
		}
	}
	return op
}

// buildCity builds the §5.1 testbed: gws spread gateways with standard
// plans on the band, and exactly band.TheoreticalCapacity() nodes spread
// over the area, each assigned a *distinct, link-feasible* (channel, DR)
// pair — "144 COTS LoRa nodes with different channels and orthogonal data
// rates".
func buildCity(seed int64, band region.Band, gws int) (*sim.Network, *sim.Operator) {
	n := sim.New(seed, testbedEnv(seed))
	op := gridOperator(n, band, gws)
	op.UniformNodes(band.TheoreticalCapacity(), 2100, 1600, band.AllChannels(), seed)
	assignDistinctPairs(n, op, band)
	return n, op
}

// assignDistinctPairs gives every node a unique (channel, DR) pair that
// its links support: the pair's DR must close the link to at least one
// gateway that (under the standard plan) operates the channel. Weak nodes
// pick first so strong nodes absorb the leftover fast rates.
func assignDistinctPairs(n *sim.Network, op *sim.Operator, band region.Band) {
	env := n.Med.Environment()
	gwCh := make([]map[region.Hz]bool, len(op.Gateways))
	for g, gw := range op.Gateways {
		gwCh[g] = map[region.Hz]bool{}
		for _, ch := range gw.Config().Channels {
			gwCh[g][ch.Center] = true
		}
	}
	// maxDR[i][g]: fastest DR closing node i → gateway g, or -1.
	maxDR := make([][]int, len(op.Nodes))
	best := make([]int, len(op.Nodes)) // node's best reachable DR overall
	for i, nd := range op.Nodes {
		maxDR[i] = make([]int, len(op.Gateways))
		best[i] = -1
		for g, gw := range op.Gateways {
			snr := env.SNRdB(phy.Link{TXPowerDBm: nd.PowerDBm, TXPos: nd.Pos, RXPos: gw.Pos, RXAntenna: phy.Omni(3)})
			if dr, ok := phy.MaxDR(snr, 0); ok {
				maxDR[i][g] = int(dr)
				if int(dr) > best[i] {
					best[i] = int(dr)
				}
			} else {
				maxDR[i][g] = -1
			}
		}
	}
	order := make([]int, len(op.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return best[order[a]] < best[order[b]] })

	used := map[int]bool{} // pair key ch*6+dr
	chans := band.AllChannels()
	for _, i := range order {
		nd := op.Nodes[i]
		assigned := false
		// Prefer the slowest free feasible DR (leave fast pairs for the
		// strong nodes picked later).
		for dr := 0; dr <= 5 && !assigned; dr++ {
			for c, ch := range chans {
				if used[c*6+dr] {
					continue
				}
				// Some gateway operating ch must be reachable at dr.
				ok := false
				for g := range op.Gateways {
					if gwCh[g][ch.Center] && maxDR[i][g] >= dr {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
				nd.Channels = []region.Channel{ch}
				nd.DR = lora.DR(dr)
				used[c*6+dr] = true
				assigned = true
				break
			}
		}
		if !assigned {
			// No free feasible pair: fall back to the node's best link
			// (duplicate settings — it may collide, as in reality).
			nd.DR = lora.DR(max(best[i], 0))
		}
	}
}

// plannedCity builds the testbed, learns every node's links over the band
// and applies an AlphaWAN capacity plan (Strategy ① off when
// fixedChannels is 8).
func plannedCity(seed int64, band region.Band, gws int, nodeSide bool, fixedChannels int) (*sim.Network, *sim.Operator, *planner.Result) {
	n, op := buildCity(seed, band, gws)
	n.LearningSweep(0, des.Second, band.AllChannels(), 3)
	return n, op, alphaWANPlan(op, band.AllChannels(), nodeSide, fixedChannels, seed)
}

// cityArm is one configuration of the testbed before its capacity probe:
// standard plans, Random CP gateway configurations, or an AlphaWAN plan.
type cityArm struct {
	randomCP, plan, nodeSide bool
	fixedChannels            int
}

// cityProbe builds the testbed in the given arm and returns its capacity:
// how many of its users, all sending at once, the operator receives.
func cityProbe(seed int64, band region.Band, gws int, arm cityArm) int {
	var n *sim.Network
	var op *sim.Operator
	if arm.plan {
		n, op, _ = plannedCity(seed, band, gws, arm.nodeSide, arm.fixedChannels)
	} else {
		n, op = buildCity(seed, band, gws)
	}
	if arm.randomCP {
		if err := op.ApplyGatewayConfigs(baseline.RandomCPConfigs(band, gws, cotsModel.Chipset, op.Sync, seed)); err != nil {
			panic(err)
		}
	}
	return n.CapacityProbe(n.Sim.Now() + 10*des.Second)[op.ID]
}

// cityEnv is the propagation profile of the city experiments: mild urban
// attenuation (the paper's gateways hear across most of the testbed — a
// user connects to ≈7 gateways without ADR) with heavy shadowing for link
// diversity.
func cityEnv(seed int64) phy.Environment {
	e := phy.Urban(seed)
	e.Exponent = 3.0
	e.ShadowSigma = 6
	return e
}

// cityOperator deploys a city-scale operator: gws gateways on the testbed
// grid with standard homogeneous plans, and phys physical nodes that
// jointly emulate the user population.
func cityOperator(n *sim.Network, band region.Band, gws, phys int, seed int64) *sim.Operator {
	op := gridOperator(n, band, gws)
	// Real deployments mix provisioning styles: roughly half the devices
	// are ADR-managed (10 dB installation margin → fast rates near their
	// gateway), the rest ship with conservative static settings (DR0–DR2,
	// the LoRaWAN factory defaults) whose long-range SFs are heard — and
	// burn decoders — at every in-range gateway. Each node hops within the
	// standard channel plan of its serving gateway.
	op.UniformNodesMargin(phys, 2100, 1600, band.AllChannels(), seed, 10)
	for i, nd := range op.Nodes {
		if i%3 != 0 {
			nd.DR = lora.DR(i % 3) // static DR0/DR1/DR2
		}
	}
	op.AssignNodesToGatewayPlans()
	return op
}

// emulatedInterval readies a physical node standing in for factor users
// and returns its mean gap between uplinks. Each emulated user fills its
// duty budget, so the node transmits factor× as often — the paper's
// §5.2.1 elevated-duty emulation. The node carries many users' slots: no
// regulatory silence, but its emulated users occupy distinct time slots,
// i.e. the node never overlaps itself.
func emulatedInterval(nd *node.Node, factor, duty float64) des.Time {
	nd.DutyCycle = 1
	return des.Time(float64(traffic.MeanIntervalForDutyCycle(nd, duty)) / factor)
}

// emulateUsers starts duty-cycled Poisson traffic on the operator's
// physical nodes standing in for `users` users from start to stop, as the
// paper's §5.2.1 emulation does (one node stands in for up to ten users).
func emulateUsers(n *sim.Network, op *sim.Operator, users int, duty float64, start, stop des.Time) {
	factor := float64(users) / float64(len(op.Nodes))
	for _, nd := range op.Nodes {
		traffic.StartPoisson(n.Med, nd, start, stop, emulatedInterval(nd, factor, duty))
	}
}

// cityLoad runs the window with every operator emulating usersPerOp users.
func cityLoad(n *sim.Network, ops []*sim.Operator, usersPerOp int, duty float64, window des.Time) {
	start := n.Sim.Now()
	for _, op := range ops {
		emulateUsers(n, op, usersPerOp, duty, start, start+window)
	}
	n.Sim.RunUntil(start + window + des.Minute)
}

// offlineSolver is the offline planner's GA budget (the test profile
// shrinks it).
func offlineSolver(seed int64, elitism int) evolve.Options {
	s := evolve.DefaultOptions(seed)
	s.Population, s.Generations, s.Patience, s.Elitism = 96, 300, 60, elitism
	applySolverProfile(&s.Population, &s.Generations, &s.Patience)
	return s
}

// alphaWANPlan runs the full planning loop for a capacity probe (every
// user concurrent) on a network that already has logs (run LearningPhase
// first): it returns the plan and applies it.
func alphaWANPlan(op *sim.Operator, channels []region.Channel, nodeSide bool, fixedChannels int, seed int64) *planner.Result {
	plan, err := scenario.PlanAndApply(op, planner.Input{
		Channels:        channels,
		TrafficOverride: 1,
		NodeSide:        nodeSide,
		// 2 dB headroom over the logged SNRs absorbs the cross-SF
		// interference a fully loaded probe adds.
		MarginDB:           2,
		FixedChannelsPerGW: fixedChannels,
		Solver:             offlineSolver(seed, 6),
	})
	if err != nil {
		panic(err)
	}
	return plan
}

// alphaWANLoadPlan plans for duty-cycled load — perNode is the expected
// concurrent packets each physical node contributes at the target
// emulated scale — with transmit power control, and applies the result.
func alphaWANLoadPlan(op *sim.Operator, channels []region.Channel, seed int64, perNode float64) {
	if perNode <= 0 {
		perNode = 0.01
	}
	if _, err := scenario.PlanAndApply(op, planner.Input{
		Channels:        channels,
		TrafficOverride: min(perNode, 1),
		NodeSide:        true,
		MarginDB:        2,
		TPC:             true,
		Solver:          offlineSolver(seed, 4),
	}); err != nil {
		panic(err)
	}
}
