package experiments

import (
	"math"

	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/tabulate"
	"github.com/alphawan/alphawan/internal/traffic"
)

var (
	fig03ab = Experiment{
		ID:    "fig03ab",
		Title: "Lock-on order decides reception (Scheme a vs Scheme b, 20 nodes)",
		Paper: "Packets are received in lock-on (preamble-end) order: Scheme (b) receives exactly nodes 1–16; Scheme (a)'s winners scatter by preamble length.",
		Run:   runFig03ab,
	}
	fig03cd = Experiment{
		ID:    "fig03cd",
		Title: "FCFS ignores SNR and channel crowdedness",
		Paper: "Low-SNR (-10 dB) packets and packets from crowded channels are received whenever they lock on early; late high-SNR packets drop.",
		Run:   runFig03cd,
	}
	fig03ef = Experiment{
		ID:    "fig03ef",
		Title: "Coexisting networks: foreign packets occupy decoders before filtering",
		Paper: "Each network's gateway receives only its own early packets; the other network's packets still consume its decoders.",
		Run:   runFig03ef,
	}
)

// twentyNodes builds the §3.1 micro-benchmark: one SX1302 gateway, 20
// nodes with distinct (channel, DR) settings (no collisions), positioned
// on an equal-SNR ring.
func twentyNodes(seed int64) (*sim.Network, *sim.Operator) {
	n := sim.New(seed, flatEnv(seed))
	op := soloGateways(n, 1)[0]
	for i := 0; i < 20; i++ {
		ch := region.AS923.Channel(i % 8)
		dr := lora.DR(5 - i%3) // DR5/DR4/DR3 mix: distinct (ch, DR) pairs
		ang := 2 * math.Pi * float64(i) / 20
		op.AddNode(phy.Pt(150*math.Cos(ang), 150*math.Sin(ang)),
			[]region.Channel{ch}, dr)
	}
	return n, op
}

// prrByNode runs one burst and returns each node's reception (0 or 1).
func prrByNode(n *sim.Network, op *sim.Operator, align traffic.BurstAlign) []int {
	received := make([]int, len(op.Nodes))
	n.Med.Deliveries.Subscribe(func(d medium.Delivery) {
		if d.TX.Network == op.ID {
			received[int(d.TX.Node)] = 1
		}
	})
	traffic.ScheduleBurst(n.Med, op.Nodes, n.Sim.Now()+5*des.Second,
		align, des.Millisecond)
	n.Sim.Run()
	return received
}

func runFig03ab(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 3a/b — PRR of 20 staggered concurrent nodes",
		"node", "scheme(a) leading-preamble order", "scheme(b) final-preamble order",
	)}
	na, opa := twentyNodes(seed)
	a := prrByNode(na, opa, traffic.AlignStarts)
	nb, opb := twentyNodes(seed)
	b := prrByNode(nb, opb, traffic.AlignLockOns)
	for i := 0; i < 20; i++ {
		res.Table.AddRow(i+1, a[i], b[i])
	}
	// Scheme (b): exactly the first 16 nodes by lock-on.
	bOK := true
	for i, v := range b {
		if (i < 16 && v != 1) || (i >= 16 && v != 0) {
			bOK = false
		}
	}
	if bOK {
		res.Note("scheme (b): nodes 1–16 received, 17–20 dropped — reception follows lock-on order")
	} else {
		res.Note("WARNING: scheme (b) deviates from strict lock-on order: %v", b)
	}
	// Scheme (a): winners are NOT simply nodes 1–16 (preamble durations
	// reorder the lock-ons).
	aFirst16 := true
	for i, v := range a {
		if (i < 16 && v != 1) || (i >= 16 && v != 0) {
			aFirst16 = false
		}
	}
	if !aFirst16 {
		res.Note("scheme (a): receptions scatter across node ids — start order alone does not decide")
	} else {
		res.Note("WARNING: scheme (a) matched start order exactly (preamble reordering not visible)")
	}
	return res
}

func runFig03cd(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 3c/d — FCFS vs SNR and channel crowding",
		"variant", "early low-SNR received", "late high-SNR received", "crowded-ch received", "idle-ch received",
	)}

	// (c) SNR: nodes 1–16 on weak (≈ -13 dB) links, 17–20 strong. The
	// weak nodes keep distinct (channel, DR) pairs: 8 channels × DR0/DR1.
	n, op := twentyNodes(seed)
	for i, nd := range op.Nodes {
		if i < 16 {
			ang := 2 * math.Pi * float64(i) / 16
			nd.Pos = phy.Pt(700*math.Cos(ang), 700*math.Sin(ang))
			nd.DR = lora.DR(i / 8) // DR0 or DR1: decodable at -13 dB
			nd.Channels = []region.Channel{region.AS923.Channel(i % 8)}
		} else {
			nd.Pos = phy.Pt(100+float64(i), 0) // strong, DR5/DR4/DR3 mix
		}
	}
	got := prrByNode(n, op, traffic.AlignLockOns)
	weakRecv, strongRecv := 0, 0
	for i, v := range got {
		if i < 16 {
			weakRecv += v
		} else {
			strongRecv += v
		}
	}

	// (d) Crowding: channels 1–3 carry 5 nodes each (crowded), channel 4
	// carries 2 and others idle; all settings distinct.
	n2, op2 := twentyNodes(seed)
	for i, nd := range op2.Nodes {
		var ch int
		if i < 15 {
			ch = i/5 + 1 // channels 1..3, 5 nodes each
			nd.DR = lora.DR(i % 5)
		} else {
			ch = 4
			nd.DR = lora.DR(i % 5)
		}
		nd.Channels = []region.Channel{region.AS923.Channel(ch)}
	}
	got2 := prrByNode(n2, op2, traffic.AlignLockOns)
	crowded, idle := 0, 0
	for i, v := range got2 {
		if i < 15 {
			crowded += v
		} else {
			idle += v
		}
	}
	res.Table.AddRow("counts", weakRecv, strongRecv, crowded, idle)
	if weakRecv == 16 && strongRecv == 0 {
		res.Note("all 16 early low-SNR packets received; all 4 late strong packets dropped — FCFS ignores SNR")
	} else {
		res.Note("WARNING: SNR unexpectedly influenced reception (%d weak, %d strong)", weakRecv, strongRecv)
	}
	if crowded == 15 && idle >= 1 {
		res.Note("crowded channels not penalized: %d/15 crowded and %d/5 idle received — only lock-on order matters", crowded, idle)
	} else {
		res.Note("crowded/idle split: %d/15 and %d/5", crowded, idle)
	}
	return res
}

func runFig03ef(seed int64) *Result {
	res := &Result{Table: tabulate.New(
		"Figure 3e/f — two coexisting networks, 10 nodes each",
		"node slot", "network 1 received", "network 2 received",
	)}
	n := sim.New(seed, flatEnv(seed))
	ops := soloGateways(n, 2)
	// 20 interleaved slots: even slots network 1, odd network 2; distinct
	// (ch, DR) pairs across both networks.
	var slots []*node.Node
	for i := 0; i < 20; i++ {
		ch := region.AS923.Channel(i % 8)
		dr := lora.DR(5 - (i/8)%3)
		ang := 2 * math.Pi * float64(i) / 20
		slots = append(slots, ops[i%2].AddNode(phy.Pt(150*math.Cos(ang), 150*math.Sin(ang)), []region.Channel{ch}, dr))
	}
	received := map[medium.NetworkID]map[medium.NodeID]bool{1: {}, 2: {}}
	n.Med.Deliveries.Subscribe(func(d medium.Delivery) {
		received[d.TX.Network][d.TX.Node] = true
	})
	// One combined burst in slot order (final-preamble order, Scheme b).
	traffic.ScheduleBurst(n.Med, slots, 5*des.Second, traffic.AlignLockOns, des.Millisecond)
	n.Sim.Run()

	recv := map[int]int{}
	foreignBurn := 0
	for i, nd := range slots {
		ok := received[nd.Network][nd.ID]
		if ok {
			recv[i%2]++
		}
		r1, r2 := 0, 0
		if i%2 == 0 && ok {
			r1 = 1
		}
		if i%2 == 1 && ok {
			r2 = 1
		}
		res.Table.AddRow(i+1, r1, r2)
	}
	for _, op := range ops {
		foreignBurn += op.Gateways[0].Radio().Stats().Foreign
	}
	res.Note("network 1 received %d, network 2 received %d (sum %d = one decoder pool)",
		recv[0], recv[1], recv[0]+recv[1])
	res.Note("foreign packets that consumed decoders before filtering: %d", foreignBurn)
	if recv[0]+recv[1] != 16 {
		res.Note("WARNING: aggregate != 16")
	}
	return res
}
