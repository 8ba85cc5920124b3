// Package adaptive closes the loop the paper leaves open: the Master
// plans once, the faults subsystem injects, and nothing reacts. Here a
// Master-side control loop subscribes to the fault injector's episode
// transitions, maintains the drifted state of the live network (gateways
// up or down, degraded decoder pools), and on a DES-clocked cadence
// re-prices the live channel plan with a full cp Evaluate and runs a
// bounded warm-started re-solve. A candidate plan is adopted only
// when it is valid and no worse than the incumbent under the fault state
// that triggered it; adopted diffs are pushed to gateways and end
// devices through the existing command-delivery seam.
//
// Determinism: the view is a pure bus subscriber (no DES events, no
// RNG), controller ticks are scheduled on the DES clock at attach time,
// and each re-solve draws from its own deterministic seed — so the same
// simulation seed and fault plan reproduce the identical replan
// decisions bit for bit, and with no faults attached the whole loop is
// a provable no-op.
package adaptive

import "github.com/alphawan/alphawan/internal/faults"

// View is the fault state the controller replans against: which outage
// and degrade episodes are active, and an epoch that moves on every
// transition. The zero View is ready to use; it schedules no DES events
// and draws no randomness, so attaching one never perturbs a run.
type View struct {
	// outages and degrades are the currently active fault episodes, in
	// arrival order; epoch increments on every transition — the dirty
	// signal the controller's ticks poll. With no injector watched (or
	// an empty plan) the epoch stays 0 forever and the controller never
	// replans.
	outages  []*faults.Episode
	degrades []*faults.Episode
	epoch    uint64
}

// WatchFaults records the injector's episode transitions: gateway
// outages and decoder degrades update the up/down and decoder-cap state
// and bump the epoch. Backhaul and downlink episodes do not change what
// the CP problem can express, so they are ignored.
func (v *View) WatchFaults(inj *faults.Injector) {
	inj.Events.Subscribe(func(e faults.FaultEvent) {
		switch e.Episode.Kind {
		case faults.KindGatewayOutage:
			if e.Active {
				v.outages = append(v.outages, e.Episode)
			} else {
				v.outages = removeEpisode(v.outages, e.Episode)
			}
		case faults.KindDecoderDegrade:
			if e.Active {
				v.degrades = append(v.degrades, e.Episode)
			} else {
				v.degrades = removeEpisode(v.degrades, e.Episode)
			}
		default:
			return
		}
		v.epoch++
	})
}

func removeEpisode(eps []*faults.Episode, ep *faults.Episode) []*faults.Episode {
	out := eps[:0]
	for _, e := range eps {
		if e != ep {
			out = append(out, e)
		}
	}
	return out
}

// Epoch returns the fault-transition counter. A controller tick replans
// only when the epoch moved since its last look.
func (v *View) Epoch() uint64 { return v.epoch }

// GatewayDown reports whether any active outage episode targets the
// gateway.
func (v *View) GatewayDown(gwID int) bool {
	for _, ep := range v.outages {
		if ep.Targets(gwID) {
			return true
		}
	}
	return false
}

// DecoderCap returns the tightest active degrade cap on the gateway's
// decoder pool, or 0 when none is active — mirroring the injector's
// tightest-cap-wins rule.
func (v *View) DecoderCap(gwID int) int {
	cap := 0
	for _, ep := range v.degrades {
		if !ep.Targets(gwID) {
			continue
		}
		if cap == 0 || ep.Decoders < cap {
			cap = ep.Decoders
		}
	}
	return cap
}
