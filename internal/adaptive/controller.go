// Package adaptive closes the loop the paper leaves open: the Master
// plans once, the faults subsystem injects, and nothing reacts. Here a
// Master-side control loop reads the fault injector's record of the
// drifted network (gateways up or down, degraded decoder pools), and on a
// DES-clocked cadence re-prices the live channel plan with a full cp
// Evaluate and runs a bounded warm-started re-solve. A candidate plan is
// adopted only when it is valid and no worse than the incumbent under the
// fault state that triggered it; adopted diffs are pushed to gateways and
// end devices through the existing command-delivery seam.
//
// Determinism: the controller only reads the injector (it subscribes to
// nothing and draws none of the injector's randomness), its ticks are
// scheduled on the DES clock at attach time, and each re-solve draws from
// its own deterministic seed — so the same simulation seed and fault plan
// reproduce the identical replan decisions bit for bit, and with no
// faults attached the whole loop is a provable no-op.
package adaptive

import (
	"fmt"

	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/frame"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// Config tunes one operator's control loop.
type Config struct {
	// Start and Stop bound the tick schedule; Interval is the cadence.
	// Ticks are scheduled upfront on the DES clock at Attach time, so
	// the loop itself never perturbs event ordering mid-run.
	Start, Stop, Interval des.Time
	// Channels is the operator's planning universe — the same slice the
	// original plan was solved against; assignment channel indices map
	// into it.
	Channels []region.Channel
	// Solver bounds each re-solve. Solver.Seed is the base seed; each
	// replan derives its own deterministic stream from it, so replan k of
	// a run is reproducible regardless of how many ticks were no-ops.
	Solver evolve.Options
}

// PlanEvent reports one replan decision (ticks that observe no epoch
// change are silent).
type PlanEvent struct {
	At    des.Time
	Epoch uint64
	// Adopted mirrors Decision.Adopted; Changed is len(Decision.Diff).
	// An adopted decision with Changed == 0 means the incumbent was
	// already optimal under the drifted problem — nothing is pushed.
	Adopted   bool
	Changed   int
	Incumbent cp.Cost
	Candidate cp.Cost
}

// Controller is one operator's closed replanning loop.
type Controller struct {
	// Events publishes every replan decision, in DES order. Subscribers
	// must stay pure (this is the invariants hook).
	Events events.Topic[PlanEvent]

	n   *sim.Network
	op  *sim.Operator
	inj *faults.Injector
	cfg Config

	base      *cp.Problem
	incumbent *cp.Assignment
	devices   []frame.DevAddr

	lastEpoch uint64
	replans   int
	adopted   int
	pushed    int
}

// Attach wires a control loop for one operator over its live plan and
// schedules its ticks. The plan must carry Problem, Assignment and
// Devices (a planner.Plan result does); inj is the fault state the loop
// replans against.
func Attach(n *sim.Network, op *sim.Operator, plan *planner.Result, inj *faults.Injector, cfg Config) (*Controller, error) {
	if plan.Problem == nil || plan.Assignment == nil {
		return nil, fmt.Errorf("adaptive: plan carries no problem/assignment")
	}
	if len(plan.Devices) != len(plan.Problem.Nodes) {
		return nil, fmt.Errorf("adaptive: plan maps %d devices over %d problem nodes",
			len(plan.Devices), len(plan.Problem.Nodes))
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive tick interval")
	}
	c := &Controller{
		n: n, op: op, inj: inj, cfg: cfg,
		base:      plan.Problem,
		incumbent: plan.Assignment.Clone(),
		devices:   plan.Devices,
	}
	for t := cfg.Start; t < cfg.Stop; t += cfg.Interval {
		n.Sim.At(t, c.tick)
	}
	return c, nil
}

// Replans returns (replans attempted, adopted, genes pushed).
func (c *Controller) Replans() (replans, adopted, pushed int) {
	return c.replans, c.adopted, c.pushed
}

// Incumbent returns the plan the controller currently believes is live.
func (c *Controller) Incumbent() *cp.Assignment { return c.incumbent }

// tick is the epoch-gated control step. When no fault transition
// happened since the last replan it returns without touching the solver,
// the RNG, or the command path — which is what makes an adaptive run
// with an empty fault plan byte-identical to a static one.
func (c *Controller) tick() {
	epoch := c.inj.Epoch()
	if epoch == c.lastEpoch {
		return
	}
	c.lastEpoch = epoch

	q := c.driftedProblem()
	opt := c.cfg.Solver
	// Dedicated stream per replan: fault plans with different episode
	// counts replan different numbers of times without sharing draws.
	opt.Seed = opt.Seed + int64(c.replans)*0x9E37
	c.replans++

	d, err := Replan(q, c.incumbent, opt)
	if err != nil {
		// An incumbent can become formally invalid only if the problem
		// shape changed, which driftedProblem never does; treat solver
		// errors as a skipped replan rather than poisoning the run.
		return
	}
	c.Events.Publish(PlanEvent{
		At: c.n.Sim.Now(), Epoch: epoch,
		Adopted: d.Adopted, Changed: len(d.Diff),
		Incumbent: d.IncumbentCost, Candidate: d.CandidateCost,
	})
	if !d.Adopted {
		return
	}
	c.adopted++
	if len(d.Diff) == 0 {
		return
	}
	c.push(d.Candidate, d.Diff)
	c.incumbent = d.Candidate.Clone()
}

// driftedProblem projects the injector's fault state onto the base problem:
// degraded gateways lose decoders, and nodes lose reachability through
// down gateways. The base problem is never mutated (cp problems are
// immutable after first evaluation); a drifted copy gets its own
// reachability memo.
func (c *Controller) driftedProblem() *cp.Problem {
	q := &cp.Problem{Channels: c.base.Channels}
	q.Gateways = make([]cp.GatewaySpec, len(c.base.Gateways))
	down := make([]bool, len(c.base.Gateways))
	anyDown := false
	for j, spec := range c.base.Gateways {
		gwID := c.op.Gateways[j].ID
		if cap := c.inj.DecoderCap(gwID); cap > 0 && cap < spec.Decoders {
			spec.Decoders = cap
		}
		if c.inj.GatewayDown(gwID) {
			down[j] = true
			anyDown = true
		}
		q.Gateways[j] = spec
	}
	if !anyDown {
		// NodeSpecs are read-only to the solver; share them.
		q.Nodes = c.base.Nodes
		return q
	}
	q.Nodes = make([]cp.NodeSpec, len(c.base.Nodes))
	for i, spec := range c.base.Nodes {
		maxDR := make([]int, len(spec.MaxDR))
		copy(maxDR, spec.MaxDR)
		for j := range maxDR {
			if down[j] {
				maxDR[j] = -1
			}
		}
		spec.MaxDR = maxDR
		q.Nodes[i] = spec
	}
	return q
}

// push applies an adopted diff through the live command path, in diff
// order (gateways ascending, then nodes ascending — deterministic).
// Gateway retunes go through ApplyConfigInstant, which is safe while a
// gateway is fault-outaged: the new channel set takes effect when the
// outage lifts. Node retunes go through the network server's downlink
// scheduler and the operator's command-delivery seam, so the fault
// injector can drop or delay them like any other downlink.
func (c *Controller) push(a *cp.Assignment, diff []cp.Gene) {
	for _, g := range diff {
		if !g.IsNode() {
			j := g.Index()
			cfg := radio.Config{Sync: c.op.Sync}
			for _, k := range a.GWChannels[j] {
				cfg.Channels = append(cfg.Channels, c.cfg.Channels[k])
			}
			if err := c.op.Gateways[j].ApplyConfigInstant(cfg); err != nil {
				continue // adopted plans validate; defensive only
			}
			c.pushed++
			continue
		}
		i := g.Index()
		dev, ok := c.op.Server.Device(c.devices[i])
		if !ok {
			continue
		}
		c.op.Server.SendNodePlan(dev,
			c.cfg.Channels[a.NodeChannel[i]],
			lora.DR(a.NodeRing[i]),
			3) // 14 dBm — the planner's profiling power
		c.pushed++
	}
}
