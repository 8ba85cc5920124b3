package main

import (
	"fmt"
	"time"

	"github.com/alphawan/alphawan/alphawan"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/traffic"
)

// nodeCityScale sizes node-city. The full scale is examples/citynet's
// operator (fig13's "w/o ADR" cell at 12 000 users) plus a co-located
// second operator whose packets burn operator A's decoders.
type nodeCityScale struct {
	gwA, physA, usersA int
	gwB, physB, usersB int
	window             des.Time
}

var (
	nodeCityFull  = nodeCityScale{15, 144, 12000, 5, 48, 4000, 5 * des.Minute}
	nodeCitySmoke = nodeCityScale{4, 24, 800, 2, 8, 300, 20 * des.Second}
)

// nodeCity is one composed scenario, ready to run once.
type nodeCity struct {
	net   *alphawan.Network
	a, b  *alphawan.Operator
	scale nodeCityScale
}

// nodeCityTopologySeed fixes where the nodes stand and how their links
// fade — citynet's own deployment. The workload seed drives the simulation
// (every node's Poisson stream, channel hops, frame contents), not the
// city: with 144 + 48 nodes, redrawing the city moves PRR by several
// percent from seed to seed, which would drown a change in the code.
const nodeCityTopologySeed = 1

// buildNodeCity composes the scenario through the public simulation API,
// the way examples/citynet does: standard Testbed plans, a gateway grid
// over the 2.1 km × 1.6 km area, mixed static/ADR-style provisioning.
func buildNodeCity(seed int64, sc nodeCityScale) (*nodeCity, error) {
	env := alphawan.Urban(nodeCityTopologySeed)
	env.Exponent = 3.0
	env.ShadowSigma = 6
	net := alphawan.NewNetwork(seed, env)

	deploy := func(gws, phys int, x0, y0 float64, nodeSeed int64) (*alphawan.Operator, error) {
		op := net.AddOperator()
		cfgs := alphawan.StandardConfigs(alphawan.Testbed, gws, op.Sync)
		for i := 0; i < gws; i++ {
			x := x0 + float64(i%5)*425.0
			y := y0 + float64(i/5)*600.0
			if _, err := op.AddGateway(alphawan.RAK7268CV2, alphawan.Pt(x, y), cfgs[i]); err != nil {
				return nil, fmt.Errorf("node-city: gateway %d: %w", i, err)
			}
		}
		op.UniformNodesMargin(phys, 2100, 1600, alphawan.Testbed.AllChannels(), nodeSeed, 10)
		for i, nd := range op.Nodes {
			if i%3 != 0 {
				nd.DR = alphawan.DR(i % 3) // conservative static provisioning
			}
		}
		op.AssignNodesToGatewayPlans()
		return op, nil
	}
	a, err := deploy(sc.gwA, sc.physA, 200, 200, nodeCityTopologySeed)
	if err != nil {
		return nil, err
	}
	// Operator B sits between A's gateway rows, on the same band.
	b, err := deploy(sc.gwB, sc.physB, 412, 500, nodeCityTopologySeed+1)
	if err != nil {
		return nil, err
	}
	return &nodeCity{net: net, a: a, b: b, scale: sc}, nil
}

// run plays the window of duty-cycled Poisson traffic (each emulated user
// fills a 1 % duty budget) and one minute of drain.
func (c *nodeCity) run() {
	c.net.Col.Reset()
	start := c.net.Sim.Now()
	load := func(op *alphawan.Operator, users int) {
		factor := float64(users) / float64(len(op.Nodes))
		for _, nd := range op.Nodes {
			nd.DutyCycle = 1
			mean := des.Time(float64(traffic.MeanIntervalForDutyCycle(nd, 0.01)) / factor)
			traffic.StartPoisson(c.net.Med, nd, start, start+c.scale.window, mean)
		}
	}
	load(c.a, c.scale.usersA)
	load(c.b, c.scale.usersB)
	c.net.Sim.RunUntil(start + c.scale.window + des.Minute)
}

// nodeCityProbe holds the traced run's outside counters: bus-topic tallies
// and a timed wrapper around operator A's backhaul.
type nodeCityProbe struct {
	txStarts, lockOns, deliveries int64
	handleNs, handles             int64
}

func (p *nodeCityProbe) attach(c *nodeCity) {
	c.net.Med.TXStarts.Subscribe(func(*medium.Transmission) { p.txStarts++ })
	c.net.Med.LockOns.Subscribe(func(medium.LockOnEvent) { p.lockOns++ })
	c.net.Med.Deliveries.Subscribe(func(medium.Delivery) { p.deliveries++ })
	for _, op := range []*alphawan.Operator{c.a, c.b} {
		inner := op.Backhaul()
		op.SetBackhaul(func(gw *gateway.Gateway, raw []byte, meta netserver.UplinkMeta) {
			t0 := time.Now()
			inner(gw, raw, meta)
			p.handleNs += time.Since(t0).Nanoseconds()
			p.handles++
		})
	}
}

// conserved checks sent = received + Σ losses by cause for one network and
// returns the number of packets whose outcome is unaccounted.
func conserved(r *report, what string, s metrics.NetworkStats) int64 {
	lost := 0
	for _, n := range s.Losses {
		lost += n
	}
	gap := int64(s.Sent - s.Received - lost)
	if gap < 0 {
		gap = -gap
	}
	if gap != 0 {
		r.problemf("%s: sent %d ≠ received %d + lost %d", what, s.Sent, s.Received, lost)
	}
	return gap
}

// statsDigest folds a network's outcome into one comparable string; every
// repetition of a seed must produce the same one.
func statsDigest(s metrics.NetworkStats) string {
	return fmt.Sprintf("%d/%d/%v/%d/%v/%d", s.Sent, s.Received, s.Losses, s.PayloadBytes, s.ByDR, s.GatewayCopies)
}

func runNodeCity(cfg runConfig) (*report, error) {
	r := newReport("node-city")
	sc := nodeCityFull
	if cfg.smoke {
		sc = nodeCitySmoke
	}

	var setups, walls, cpus []float64
	var digest string
	var last *nodeCity
	var probe nodeCityProbe
	var tx int64
	rep := func(i int, timed bool) (float64, error) {
		id := cfg.tr.begin("rep", 0, int64(i))
		t0 := time.Now()
		sb := cfg.tr.begin("sim.build", id, int64(i))
		c, err := buildNodeCity(cfg.seed, sc)
		cfg.tr.end(sb)
		if err != nil {
			return 0, err
		}
		setup := time.Since(t0).Seconds()
		if timed && cfg.tr != nil {
			probe = nodeCityProbe{}
			probe.attach(c)
		}
		cpu0 := processCPUSeconds()
		t1 := time.Now()
		sr := cfg.tr.begin("sim.run", id, int64(i))
		c.run()
		cfg.tr.end(sr)
		wall := time.Since(t1).Seconds()
		cpu := processCPUSeconds() - cpu0
		cfg.tr.end(id)

		a, b := c.net.Col.Network(c.a.ID), c.net.Col.Network(c.b.ID)
		d := statsDigest(a) + "|" + statsDigest(b)
		if digest == "" {
			digest = d
		} else if d != digest {
			r.problemf("repetition %d: result digest %s differs from %s", i, d, digest)
		}
		if timed {
			setups, walls, cpus = append(setups, setup), append(walls, wall), append(cpus, cpu)
			tx += int64(a.Sent + b.Sent)
			last = c
		}
		return wall, nil
	}
	if err := repeatFor(cfg, true, 3, rep); err != nil {
		return nil, err
	}
	cfg.tr.stopProfile(r, tx)

	a, b := last.net.Col.Network(last.a.ID), last.net.Col.Network(last.b.ID)
	perRep := int64(a.Sent + b.Sent)
	r.attempted = perRep
	r.failed = conserved(r, "operator A", a) + conserved(r, "operator B", b)
	r.notef("%d reps × %d tx (A %d, B %d), PRR A %.4f B %.4f, %.2f gateway copies per delivered frame",
		len(walls), perRep, a.Sent, b.Sent, a.PRR(), b.PRR(), float64(a.GatewayCopies)/float64(max(a.Received, 1)))

	if cfg.tr == nil {
		r.closedMetrics(setups, walls, cpus, scale(walls, 1e3), tx, a.PRR(), 1e3*(1-a.PRR()))
		return r, nil
	}

	r.set("trace.work_per_s", float64(tx)/sum(walls))
	r.set("medium.lockons_per_tx", ratio(probe.lockOns, probe.txStarts))
	r.set("medium.deliveries_per_lockon", ratio(probe.deliveries, probe.lockOns))
	var seen, noDecoder, foreign int64
	for _, op := range []*alphawan.Operator{last.a, last.b} {
		for _, gw := range op.Gateways {
			st := gw.Radio().Stats()
			seen += int64(st.TotalSeen)
			noDecoder += int64(st.NoDecoder)
			foreign += int64(st.Foreign)
		}
	}
	r.set("radio.decoder_drop_ratio", ratio(noDecoder, seen))
	r.set("radio.foreign_ratio", ratio(foreign, seen))
	r.set("netserver.handle_ns", ratio(probe.handleNs, probe.handles))
	sa, sb := last.a.Server.Stats(), last.b.Server.Stats()
	up := int64(sa.Uplinks + sb.Uplinks)
	r.set("netserver.dup_ratio", ratio(int64(sa.Duplicates+sb.Duplicates), up))
	r.set("netserver.reject_ratio", ratio(int64(sa.BadMIC+sa.Unknown+sa.Replays+sb.BadMIC+sb.Unknown+sb.Replays), up))
	if probe.txStarts != perRep {
		r.problemf("bus saw %d TX starts, collector counted %d sent", probe.txStarts, perRep)
	}
	return r, nil
}
