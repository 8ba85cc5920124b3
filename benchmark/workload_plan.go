package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/logparse"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/alphawan/trafficest"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/runner"
)

// planScale is one planning problem size, solved per device. minTraffic is
// the traffic estimator's floor per device.
type planScale struct {
	devices, gateways int
	minTraffic        float64
}

// The paper's Fig. 17 scales. At the estimator floor of 0.01 the expected
// concurrent traffic sits near the capacity of the 24-channel band at every
// scale: the greedy seed's cost is above zero and the GA has something to
// improve, without the problem being so overloaded that every assignment
// costs the same. The smoke scales get the same pressure from a tenth of
// the devices with ten times the floor.
var (
	planScalesFull  = []planScale{{4000, 4, 0.01}, {8000, 8, 0.01}, {12000, 12, 0.01}}
	planScalesSmoke = []planScale{{200, 1, 0.1}, {400, 2, 0.1}}
)

// Log synthesis: each device is logged for planLogWindows one-minute
// windows, one to planLogFrames frames in each, by every gateway that
// hears it.
const (
	planLogWindows = 3
	planLogFrames  = 3
	planMarginDB   = 2
	// planGWPitch is the gateway grid pitch in metres. With the urban
	// model below nearly every gateway of the grid hears every device at
	// SF12 (11.4 of 12 on average), at SNRs that allow very different
	// data rates: the planner's choice is which to serve each device from.
	planGWPitch = 900.0
)

// synthLog generates an operational log from the seed alone: gateways on a
// grid, devices uniform over the covered area, SNR from log-distance path
// loss plus frozen shadowing, and every device reachable from at least one
// gateway with the planner's margin. Rows are in arrival order.
func synthLog(seed int64, sc planScale) ([]netserver.LogEntry, []planner.GatewayInfo) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(sc.devices)))
	env := phy.Urban(seed)
	env.Exponent = 3.0
	env.ShadowSigma = 6

	cols := 1
	for cols*cols < sc.gateways {
		cols++
	}
	rows := (sc.gateways + cols - 1) / cols
	gws := make([]planner.GatewayInfo, sc.gateways)
	pos := make([]phy.Point, sc.gateways)
	for j := range gws {
		gws[j] = planner.GatewayInfo{ID: j, Chipset: radio.SX1302}
		if j%2 == 1 {
			gws[j].Chipset = radio.SX1301 // a mixed fleet: half the decoders
		}
		pos[j] = phy.Pt(planGWPitch*(0.5+float64(j%cols)), planGWPitch*(0.5+float64(j/cols)))
	}
	w, h := planGWPitch*float64(cols), planGWPitch*float64(rows)
	channels := region.Testbed.AllChannels()
	floor := lora.DemodFloorSNR(lora.DR0.SF()) + planMarginDB

	type heard struct {
		gw  int
		snr float64
	}
	links := make([][]heard, sc.devices)
	for i := range links {
		for len(links[i]) == 0 {
			p := phy.Pt(rng.Float64()*w, rng.Float64()*h)
			for j := range pos {
				snr := env.SNRdB(phy.Link{TXPowerDBm: 14, TXPos: p, RXPos: pos[j], RXAntenna: phy.Omni(3)})
				if snr >= floor {
					links[i] = append(links[i], heard{j, snr})
				}
			}
		}
	}

	entries := 0
	for i, hs := range links {
		entries += planLogWindows * (1 + i%planLogFrames) * len(hs)
	}
	log := make([]netserver.LogEntry, 0, entries)
	for win := 0; win < planLogWindows; win++ {
		for f := 0; f < planLogFrames; f++ {
			base := des.Time(win)*des.Minute + des.Time(f)*des.Minute/planLogFrames
			for i, hs := range links {
				if f > i%planLogFrames {
					continue // device i sends 1 + i mod planLogFrames frames per window
				}
				at := base + des.Time(i)*des.Millisecond
				ch := channels[(i+win+f)%len(channels)]
				for _, hd := range hs {
					log = append(log, netserver.LogEntry{
						At: at, Gateway: hd.gw, Dev: frame.DevAddr(0x02000000 | uint32(i+1)),
						Freq: ch.Center, DR: lora.DR0, RSSIdBm: hd.snr - 120, SNRdB: hd.snr,
						FCnt: uint32(win*planLogFrames + f),
					})
				}
			}
		}
	}
	return log, gws
}

func planInput(seed int64, sc planScale, log []netserver.LogEntry, gws []planner.GatewayInfo) planner.Input {
	return planner.Input{
		Log:       log,
		Channels:  region.Testbed.AllChannels(),
		Gateways:  gws,
		Sync:      0x34,
		MarginDB:  planMarginDB,
		NodeSide:  true,
		TPC:       true,
		Solver:    coldSolver(seed),
		Estimator: trafficest.Options{Quantile: 0.9, MinTraffic: sc.minTraffic},
	}
}

// coldSolver is evolve.DefaultOptions with the search length pinned: 40
// generations and no early stop. With the default patience a plan takes 30
// to 120 generations depending on how the seed's search happens to go, a
// 4× spread in wall-clock that says nothing about the code; a benchmark
// repetition has to be the same amount of work every time.
func coldSolver(seed int64) evolve.Options {
	opt := evolve.DefaultOptions(seed)
	opt.Generations, opt.Patience = 40, 0
	return opt
}

// checkPlan validates one produced plan and returns how many of its
// devices are validly planned: connected, or beyond any plan's help because
// the problem leaves them no reachable gateway (a device heard only by the
// gateway that is down).
func checkPlan(r *report, what string, p *cp.Problem, a *cp.Assignment, cost cp.Cost) (ok int64) {
	if err := a.Validate(p); err != nil {
		r.problemf("%s: plan fails Validate: %v", what, err)
		return 0
	}
	orphans := 0
	for _, n := range p.Nodes {
		reachable := false
		for _, dr := range n.MaxDR {
			reachable = reachable || dr >= 0
		}
		if !reachable {
			orphans++
		}
	}
	return int64(len(p.Nodes) - cost.Unconnected + orphans)
}

// cpLayers times the public Evaluate and Scorer.Rescore on the workload's
// own problem and plan, whose cost is known, for the traced run.
func cpLayers(r *report, p *cp.Problem, plan *cp.Assignment, want cp.Cost) {
	const evals = 200
	t0 := time.Now()
	var c cp.Cost
	for i := 0; i < evals; i++ {
		c = p.Evaluate(plan)
	}
	r.set("cp.evaluate_ns", float64(time.Since(t0).Nanoseconds())/evals)
	if c != want {
		r.problemf("Evaluate replays %v, the workload reported %v", c, want)
	}

	// Rescore the way the solver uses it: move one node, re-price, move it
	// back. Both directions are single-gene diffs.
	scorer := cp.NewScorer(p)
	scorer.Reset(plan)
	a := plan.Clone()
	n, nCh := len(a.NodeChannel), len(p.Channels)
	t0 = time.Now()
	for i := 0; i < evals; i++ {
		k := (i * 7919) % n
		old := a.NodeChannel[k]
		a.NodeChannel[k] = (old + 1) % nCh
		scorer.Rescore(a, []cp.Gene{cp.NodeGene(k)})
		a.NodeChannel[k] = old
		c = scorer.Rescore(a, []cp.Gene{cp.NodeGene(k)})
	}
	r.set("cp.rescore_ns", float64(time.Since(t0).Nanoseconds())/(2*evals))
	if c != want {
		r.problemf("Rescore round trip ends at %v, the workload reported %v", c, want)
	}
}

// evolveLayers replays one of the workload's solves through the public
// evolve.Solve, on the default worker count and on one worker (the GA
// fitness loop's speed-up), and checks that it reproduces the cost.
func evolveLayers(r *report, p *cp.Problem, opt evolve.Options, want cp.Cost) {
	solve := func() (float64, *evolve.Result) {
		t0 := time.Now()
		out, err := evolve.Solve(p, opt)
		if err != nil {
			r.problemf("evolve.Solve: %v", err)
			return 0, nil
		}
		return time.Since(t0).Seconds(), out
	}
	par, out := solve()
	prev := runner.SetMaxWorkers(1)
	ser, _ := solve()
	runner.SetMaxWorkers(prev)
	if out == nil || par == 0 {
		return
	}
	r.set("evolve.solve_s", par)
	r.set("evolve.parallel_eff", ser/par/float64(runtime.GOMAXPROCS(0)))
	r.set("evolve.generations", float64(out.Generations))
	r.set("evolve.full_evals", float64(out.Stats.FullEvals))
	r.set("evolve.rescore_ratio", ratio(int64(out.Stats.Rescores), int64(out.Stats.Rescores+out.Stats.FullEvals)))
	if out.Cost != want {
		r.problemf("evolve.Solve replays cost %v, the workload reported %v", out.Cost, want)
	}
}

// planLayers replays plan-cold's largest problem through the planner's
// public stages for the traced run's per-layer metrics.
func planLayers(r *report, seed int64, sc planScale, log []netserver.LogEntry, res *planner.Result) {
	t0 := time.Now()
	rep := logparse.Parse(log, 0)
	r.set("logparse.ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(len(log)))
	t0 = time.Now()
	est := trafficest.Estimate(rep, trafficest.Options{Quantile: 0.9, MinTraffic: sc.minTraffic})
	r.set("trafficest.ns_per_dev", float64(time.Since(t0).Nanoseconds())/float64(len(est)))
	cpLayers(r, res.Problem, res.Assignment, res.Cost)
	evolveLayers(r, res.Problem, coldSolver(seed), res.Cost)
}

func runPlanCold(cfg runConfig) (*report, error) {
	r := newReport("plan-cold")
	scales := planScalesFull
	if cfg.smoke {
		scales = planScalesSmoke
	}
	devices := 0
	for _, sc := range scales {
		devices += sc.devices
	}

	var setups, walls, cpus []float64
	var costs []float64
	var planned int64
	var lastLog []netserver.LogEntry
	var lastRes *planner.Result
	// synth is the set-up of one plan. It starts on a collected heap, as in
	// the fresh process an operator runs the planner in; otherwise
	// peak_rss_mb depends on how much of the previous plan is uncollected.
	synth := func(sc planScale, parent int, req int64) ([]netserver.LogEntry, []planner.GatewayInfo, float64) {
		runtime.GC()
		t0 := time.Now()
		ss := cfg.tr.begin("bench.synth_log", parent, req)
		log, gws := synthLog(cfg.seed, sc)
		cfg.tr.end(ss)
		return log, gws, time.Since(t0).Seconds()
	}
	rep := func(i int, timed bool) (float64, error) {
		id := cfg.tr.begin("rep", 0, int64(i))
		var setup, wall, cpu, cost float64
		var ok int64
		for _, sc := range scales {
			log, gws, dt := synth(sc, id, int64(i))
			setup += dt

			cpu0 := processCPUSeconds()
			t1 := time.Now()
			sp := cfg.tr.begin("planner.Plan", id, int64(i))
			res, err := planner.Plan(planInput(cfg.seed, sc, log, gws))
			cfg.tr.end(sp)
			if err != nil {
				return 0, fmt.Errorf("plan-cold %d/%d: %w", sc.devices, sc.gateways, err)
			}
			wall += time.Since(t1).Seconds()
			cpu += processCPUSeconds() - cpu0
			cost += res.Cost.Total()
			ok += checkPlan(r, fmt.Sprintf("%d/%d", sc.devices, sc.gateways), res.Problem, res.Assignment, res.Cost)
			if len(res.Problem.Nodes) != sc.devices {
				r.problemf("%d/%d: planner saw %d devices", sc.devices, sc.gateways, len(res.Problem.Nodes))
			}
			lastLog, lastRes = log, res
		}
		cfg.tr.end(id)
		if len(costs) > 0 && cost != costs[0] {
			r.problemf("repetition %d: plan cost %v differs from %v", i, cost, costs[0])
		}
		costs = append(costs, cost)
		if timed {
			setups, walls, cpus = append(setups, setup), append(walls, wall), append(cpus, cpu)
			planned += ok
		}
		return wall, nil
	}
	// Set-up takes under a tenth of a second here, and the repetitions
	// give only two samples of it: three more of it alone.
	for k := 1; k <= 3 && !cfg.smoke; k++ {
		setup := 0.0
		for _, sc := range scales {
			_, _, dt := synth(sc, 0, int64(-k))
			setup += dt
		}
		setups = append(setups, setup)
	}
	// No warm-up: an operator runs the planner cold, once per change of
	// the network, so the first repetition is as valid as the rest.
	if err := repeatFor(cfg, false, 2, rep); err != nil {
		return nil, err
	}
	total := int64(devices * len(walls))
	cfg.tr.stopProfile(r, total)

	r.attempted = int64(devices)
	r.failed = (total - planned) / int64(len(walls))
	r.notef("%d reps × %d plans (%v), Σ cost %.2f, the last plan's: %v", len(walls), len(scales), scales, costs[0], lastRes.Cost)

	if cfg.tr == nil {
		r.closedMetrics(setups, walls, cpus, scale(walls, 1e3), total, ratio(planned, total), 1e3*costs[0]/float64(devices))
		return r, nil
	}
	r.set("trace.work_per_s", float64(total)/sum(walls))
	r.set("cp.plan_cost", costs[0])
	planLayers(r, cfg.seed, scales[len(scales)-1], lastLog, lastRes)
	return r, nil
}

// replanSolver is the controller's bounded per-replan budget (the
// fig-adaptive settings: population 48, warm-started from the incumbent),
// with two changes. The search length is pinned at 15 generations with no
// early stop, for the reason coldSolver gives. And ExactPolish is off: its
// per-node probe loop is sized for the controller's tens of nodes and runs
// for minutes on 12 000.
func replanSolver(seed int64) evolve.Options {
	return evolve.Options{
		Population: 48, Generations: 15, MutationRate: 0.15, TournamentK: 3,
		Elitism: 4, Seed: seed, Parallel: true,
	}
}

// drift projects one fault state onto the base problem the way
// adaptive.Controller does: a down gateway is unreachable from every node,
// a degraded one keeps fewer decoders. The base problem is not modified.
func drift(base *cp.Problem, downGW, degradedGW, decoders int) *cp.Problem {
	q := &cp.Problem{Channels: base.Channels}
	q.Gateways = append([]cp.GatewaySpec(nil), base.Gateways...)
	if degradedGW >= 0 {
		q.Gateways[degradedGW].Decoders = decoders
	}
	if downGW < 0 {
		q.Nodes = base.Nodes
		return q
	}
	q.Nodes = make([]cp.NodeSpec, len(base.Nodes))
	for i, spec := range base.Nodes {
		spec.MaxDR = append([]int(nil), spec.MaxDR...)
		spec.MaxDR[downGW] = -1
		q.Nodes[i] = spec
	}
	return q
}

func runPlanReplan(cfg runConfig) (*report, error) {
	r := newReport("plan-replan")
	sc := planScalesFull[len(planScalesFull)-1]
	if cfg.smoke {
		sc = planScalesSmoke[len(planScalesSmoke)-1]
	}

	// Set-up: the operational log and the adopted plan the faults hit.
	var setups []float64
	var base *planner.Result
	var firstCost cp.Cost
	for i := 0; i < 2; i++ {
		base = nil
		runtime.GC() // as in plan-cold: each build on a collected heap
		t0 := time.Now()
		ss := cfg.tr.begin("bench.synth_log+planner.Plan", 0, int64(-i))
		log, gws := synthLog(cfg.seed, sc)
		res, err := planner.Plan(planInput(cfg.seed, sc, log, gws))
		cfg.tr.end(ss)
		if err != nil {
			return nil, fmt.Errorf("plan-replan: initial plan: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			firstCost = res.Cost
		} else if res.Cost != firstCost {
			r.problemf("initial plan cost %v differs from %v on rebuild", res.Cost, firstCost)
		}
		base = res
		if cfg.smoke {
			break
		}
	}

	// Four fault epochs per cycle: outage, restore, degrade 16→8, restore.
	victim, degraded := sc.gateways/2, sc.gateways/3
	epochs := []*cp.Problem{
		drift(base.Problem, victim, -1, 0),
		drift(base.Problem, -1, -1, 0),
		drift(base.Problem, -1, degraded, 8),
		drift(base.Problem, -1, -1, 0),
	}

	var walls, cpus, replanS []float64
	var costs []float64
	var planned, attempts, adopted, diffGenes int64
	var first *adaptive.Decision // epoch 0 of the first cycle, from the adopted plan
	rep := func(i int, timed bool) (float64, error) {
		id := cfg.tr.begin("rep", 0, int64(i))
		incumbent := base.Assignment.Clone()
		var wall, cpu, cost float64
		for k, q := range epochs {
			opt := replanSolver(cfg.seed + int64(k)*0x9E37) // the controller's per-replan stream
			cpu0 := processCPUSeconds()
			t0 := time.Now()
			sp := cfg.tr.begin("adaptive.Replan", id, int64(i))
			d, err := adaptive.Replan(q, incumbent, opt)
			cfg.tr.end(sp)
			if err != nil {
				return 0, fmt.Errorf("plan-replan epoch %d: %w", k, err)
			}
			dt := time.Since(t0).Seconds()
			if first == nil {
				first = d
			}
			wall += dt
			cpu += processCPUSeconds() - cpu0
			ok := checkPlan(r, fmt.Sprintf("epoch %d", k), q, d.Candidate, d.CandidateCost)
			if full := q.Evaluate(d.Candidate); full != d.CandidateCost {
				r.problemf("epoch %d: rescored cost %v ≠ full evaluation %v", k, d.CandidateCost, full)
			}
			live := d.IncumbentCost
			if d.Adopted {
				incumbent, live = d.Candidate.Clone(), d.CandidateCost
			}
			cost += live.Total()
			if timed {
				replanS = append(replanS, dt)
				planned += ok
				attempts++
				diffGenes += int64(len(d.Diff))
				if d.Adopted {
					adopted++
				}
			}
		}
		cfg.tr.end(id)
		if len(costs) > 0 && cost != costs[0] {
			r.problemf("cycle %d: live plan cost %v differs from %v", i, cost, costs[0])
		}
		costs = append(costs, cost)
		if timed {
			walls, cpus = append(walls, wall), append(cpus, cpu)
		}
		return wall, nil
	}
	// The sample is the replan, four per cycle; two cycles also show that
	// a seed's decisions repeat. Set-up above already ran the solver warm.
	if err := repeatFor(cfg, false, 2, rep); err != nil {
		return nil, err
	}
	total := attempts * int64(sc.devices)
	cfg.tr.stopProfile(r, total)

	r.attempted = int64(len(epochs) * sc.devices)
	r.failed = (total - planned) / int64(len(walls))
	r.notef("%d cycles × %d replans on %d devices / %d gateways, %d adopted, Σ live cost %.2f per cycle (initial %.2f)",
		len(walls), len(epochs), sc.devices, sc.gateways, adopted, costs[0], base.Cost.Total())

	if cfg.tr == nil {
		r.closedMetrics(setups, walls, cpus, scale(replanS, 1e3), total, ratio(planned, total), 1e3*costs[0]/float64(len(epochs)*sc.devices))
		return r, nil
	}
	r.set("trace.work_per_s", float64(total)/sum(walls))
	r.set("cp.plan_cost", costs[0])
	r.set("adaptive.adopt_ratio", ratio(adopted, attempts))
	r.set("adaptive.diff_genes", ratio(diffGenes, attempts))
	// The first replan again through the public stages: the drifted
	// problem, the adopted plan as incumbent and as warm start.
	cpLayers(r, epochs[0], base.Assignment, first.IncumbentCost)
	opt := replanSolver(cfg.seed)
	opt.WarmStart = base.Assignment
	evolveLayers(r, epochs[0], opt, first.CandidateCost)
	return r, nil
}
