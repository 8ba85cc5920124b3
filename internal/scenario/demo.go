package scenario

import (
	"errors"
	"io"

	"github.com/alphawan/alphawan/internal/adaptive"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events/sinks"
	"github.com/alphawan/alphawan/internal/faults"
	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
)

// Demo is the built-in scenario behind `alphawan-sim -trace / -faults /
// -adaptive`: two operators coexist on the same AS923 channels under
// Poisson uplink traffic. The zero value of every field but Seed means
// "not asked for", and the fields are orthogonal.
//
// Without ReplanInterval each operator has one gateway and 60 nodes and
// traffic runs for 20 s from time zero — small enough to trace in under a
// second, busy enough that every loss cause shows up. With it each
// operator has two gateways and 30 nodes, learns on the full band, plans
// with the band partitioned four channels per gateway — the smallest
// topology where a gateway outage strands planned nodes and a replan can
// rescue them — and then runs 60 s of traffic with a per-operator control
// loop replanning from live telemetry on that tick interval. The learning
// and planning phases consume sim time first, so there the fault plan's
// episode times are relative to traffic start.
type Demo struct {
	Seed int64
	// MAC is the MAC strategy of every node (zero: pure ALOHA).
	MAC mac.Kind
	// Faults is injected on the DES clock and the run is put under the
	// invariant checker. An empty plan leaves the run byte-identical to a
	// nil one.
	Faults *faults.Plan
	// ReplanInterval, when positive, selects the planned topology with
	// the closed replanning loop attached; it needs Faults.
	ReplanInterval des.Time
	// Trace receives the packet-lifecycle JSONL trace (fault transitions
	// and episode-attributed drops included); Progress the periodic run
	// summary.
	Trace, Progress io.Writer
}

// Outcome is a finished Demo run. Fields the Demo did not ask for are nil.
type Outcome struct {
	Net         *sim.Network
	Tracer      *sinks.Tracer
	Injector    *faults.Injector
	Invariants  *faults.Invariants // call Finish for the verdict
	Controllers []*adaptive.Controller
}

// Run composes and runs the scenario.
func (d Demo) Run() (*Outcome, error) {
	closed := d.ReplanInterval > 0
	if closed && d.Faults == nil {
		return nil, errors.New("scenario: the replanning loop needs a fault plan")
	}
	gws, nodes, window := 1, 60, 20*des.Second
	if closed {
		gws, nodes, window = 2, 30, 60*des.Second
	}
	n := TwoOperators(d.Seed, phy.Urban(d.Seed), gws, nodes)
	out := &Outcome{Net: n}

	var err error
	var start des.Time
	var plans []*planner.Result
	channels := region.AS923.AllChannels()
	fplan := d.Faults
	if closed {
		n.LearningSweep(0, 40*des.Millisecond, channels, 2)
		plans = make([]*planner.Result, len(n.Operators))
		for i, op := range n.Operators {
			plans[i], err = PlanAndApply(op, planner.Input{
				Channels:           channels,
				TrafficOverride:    1,
				NodeSide:           true,
				MarginDB:           2,
				FixedChannelsPerGW: 4,
				Solver:             ReplanSolver(d.Seed + int64(i)),
			})
			if err != nil {
				return nil, err
			}
		}
		// Traffic starts on a whole second, giving the plan's MAC
		// downlinks time to land.
		start = (n.Sim.Now()/des.Second + 2) * des.Second
		fplan = shifted(fplan, start)
	}
	// The MAC overlay goes in after learning: the serialized sweep
	// bypasses the regulator (and with it the slot gate) by design.
	InstallMAC(n, nil, d.Seed, d.MAC)

	if fplan != nil {
		if out.Injector, out.Invariants, err = WatchFaults(n, fplan); err != nil {
			return nil, err
		}
	}
	if closed {
		out.Controllers, err = CloseLoop(n, plans, out.Injector, out.Invariants, adaptive.Config{
			Start: start, Stop: start + window, Interval: d.ReplanInterval,
			Channels: channels,
			Solver:   ReplanSolver(d.Seed),
		})
		if err != nil {
			return nil, err
		}
	}
	if d.Trace != nil {
		out.Tracer = sinks.Attach(d.Trace, n)
		if out.Injector != nil {
			out.Tracer.ObserveFaults(out.Injector)
		}
	}
	var sm *sinks.Summary
	if d.Progress != nil {
		sm = sinks.AttachSummary(d.Progress, n.Sim, n.Col, 5*des.Second)
	}

	n.Col.Reset() // learning traffic is not part of the measured window
	n.RunBackgroundTraffic(start, start+window, des.Second)
	if sm != nil {
		sm.Flush()
	}
	return out, nil
}

// shifted returns a copy of the plan with every episode moved by t0.
func shifted(p *faults.Plan, t0 des.Time) *faults.Plan {
	q := &faults.Plan{Episodes: append([]faults.Episode(nil), p.Episodes...)}
	s := float64(t0) / float64(des.Second)
	for i := range q.Episodes {
		q.Episodes[i].StartS += s
		q.Episodes[i].EndS += s
	}
	return q
}
