// Package faults is the simulator's deterministic fault-injection
// subsystem: seed-driven chaos for the scenarios a production LoRaWAN
// deployment actually faces — gateway outages, partially failed decoder
// pools, lossy/duplicating/reordering backhaul links, and slow or failed
// downlink scheduling.
//
// A Plan is a schedule of typed fault Episodes. Attaching a plan to a
// composed scenario (see Attach) wires every episode through the DES
// clock: episode begin/end are ordinary simulation events, and all
// randomness (drop coin flips, delay jitter) comes from a dedicated
// deterministic stream derived from the simulation seed. Two runs with
// the same seed and the same plan therefore produce bit-identical
// schedules, traces, and outcomes — chaos tests can assert byte equality.
//
// The Injector publishes FaultEvents on the event bus so observers (the
// trace sink, run summaries, experiments) can attribute outcomes to the
// faults active when they happened. It is also the one record of what is
// broken: a replanning controller reads Epoch, GatewayDown and
// DecoderCap, and the invariant checker its episode windows, rather than
// rebuilding either from the events. Invariants (see Watch) is the paired
// conservation checker: it subscribes to the same topics the metrics
// collector uses and asserts the laws that must survive any fault mix —
// exactly one outcome per transmission, per-device FCnt monotonicity
// through duplication and reorder, no decoder pool over-allocation, and
// bounded-window throughput recovery after outages.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/alphawan/alphawan/internal/des"
)

// Kind identifies a fault episode type.
type Kind string

// Episode kinds.
const (
	// KindGatewayOutage takes the target gateways fully offline for the
	// window (backhaul loss, power failure): every packet arriving during
	// the window is dropped as gateway downtime, attributed to the
	// episode.
	KindGatewayOutage Kind = "gateway-outage"
	// KindDecoderDegrade caps the target gateways' decoder pools at
	// Decoders for the window (e.g. an SX1302 running 16→8 decoders),
	// exercising the paper's decoder-contention model under partial
	// failure. In-flight decodes drain; only new lock-ons see the cap.
	KindDecoderDegrade Kind = "decoder-degrade"
	// KindBackhaul impairs the gateway→server uplink path for the target
	// gateways: datagrams are dropped, duplicated, reordered, and/or
	// delayed with the episode's probabilities and seeded jitter.
	KindBackhaul Kind = "backhaul"
	// KindDownlink impairs the server→device command path: downlink
	// command batches fail with probability Fail or are applied late by
	// Delay+jitter (slow downlink scheduling).
	KindDownlink Kind = "downlink"
)

// Episode is one scheduled fault window.
type Episode struct {
	// ID is the 1-based episode index within its plan, assigned at parse
	// time; traces and invariant reports refer to episodes by it.
	ID int64 `json:"-"`

	Kind Kind `json:"kind"`

	// Gateway targets one gateway by its global id; nil targets every
	// gateway (KindDownlink ignores the field: command delivery is
	// per-operator, not per-gateway).
	Gateway *int `json:"gateway,omitempty"`

	// StartS and EndS bound the episode window in simulation seconds.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// Decoders is the degraded pool size (KindDecoderDegrade).
	Decoders int `json:"decoders,omitempty"`

	// Drop, Duplicate, and Reorder are per-datagram probabilities
	// (KindBackhaul).
	Drop      float64 `json:"drop,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`

	// Fail is the per-command-batch failure probability (KindDownlink).
	Fail float64 `json:"fail,omitempty"`

	// DelayMS is the added latency in milliseconds; JitterMS adds a
	// uniform [0, JitterMS) component per datagram (KindBackhaul and
	// KindDownlink).
	DelayMS  float64 `json:"delay_ms,omitempty"`
	JitterMS float64 `json:"jitter_ms,omitempty"`
}

// Start returns the window start on the DES clock.
func (e *Episode) Start() des.Time { return des.Time(e.StartS * float64(des.Second)) }

// End returns the window end on the DES clock.
func (e *Episode) End() des.Time { return des.Time(e.EndS * float64(des.Second)) }

// Targets reports whether the episode applies to the gateway id.
func (e *Episode) Targets(gwID int) bool { return e.Gateway == nil || *e.Gateway == gwID }

// String renders a short label, e.g. "ep3 backhaul gw=1 [2s,18s)".
func (e *Episode) String() string {
	gw := "all"
	if e.Gateway != nil {
		gw = fmt.Sprintf("%d", *e.Gateway)
	}
	return fmt.Sprintf("ep%d %s gw=%s [%gs,%gs)", e.ID, e.Kind, gw, e.StartS, e.EndS)
}

func (e *Episode) validate() error {
	switch e.Kind {
	case KindGatewayOutage:
	case KindDecoderDegrade:
		if e.Decoders <= 0 {
			return fmt.Errorf("decoder-degrade needs decoders > 0, got %d", e.Decoders)
		}
	case KindBackhaul:
		if e.Drop == 0 && e.Duplicate == 0 && e.Reorder == 0 && e.DelayMS == 0 && e.JitterMS == 0 {
			return fmt.Errorf("backhaul episode impairs nothing")
		}
	case KindDownlink:
		if e.Fail == 0 && e.DelayMS == 0 && e.JitterMS == 0 {
			return fmt.Errorf("downlink episode impairs nothing")
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	if e.EndS <= e.StartS {
		return fmt.Errorf("window [%g,%g) is empty", e.StartS, e.EndS)
	}
	if e.StartS < 0 {
		return fmt.Errorf("window starts before t=0")
	}
	// The DES clock counts int64 microseconds: an end past its range
	// would wrap and close the window before it opens.
	if e.EndS*float64(des.Second) >= 1<<63 {
		return fmt.Errorf("window end %gs is past the DES clock's range", e.EndS)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", e.Drop}, {"duplicate", e.Duplicate}, {"reorder", e.Reorder}, {"fail", e.Fail}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s=%g outside [0,1]", p.name, p.v)
		}
	}
	if e.DelayMS < 0 || e.JitterMS < 0 {
		return fmt.Errorf("negative delay/jitter")
	}
	return nil
}

// Plan is a schedule of fault episodes.
type Plan struct {
	Episodes []Episode `json:"episodes"`
}

// Empty reports whether the plan schedules nothing. Attaching an empty
// plan is a no-op: no DES events, no RNG draws, no wrapped seams — runs
// stay byte-identical to runs without a plan.
func (p *Plan) Empty() bool { return p == nil || len(p.Episodes) == 0 }

// Validate checks every episode and assigns the 1-based episode IDs.
func (p *Plan) Validate() error {
	for i := range p.Episodes {
		e := &p.Episodes[i]
		e.ID = int64(i + 1)
		if err := e.validate(); err != nil {
			return fmt.Errorf("faults: episode %d: %w", i+1, err)
		}
	}
	return nil
}

// ParsePlan decodes a JSON plan (rejecting unknown fields, so typos in
// hand-written plan files fail loudly) and validates it.
func ParsePlan(data []byte) (*Plan, error) {
	p := &Plan{}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return ParsePlan(data)
}

// Scale returns a copy of the plan with every episode's intensity scaled:
// probabilities are multiplied by f (capped at 1) and outage/degrade
// window lengths are multiplied by min(f, 1), holding the start fixed.
// Scale(0) returns an empty plan; Scale(1) is the identity. The
// fig-resilience experiment sweeps f to chart delivery ratio vs fault
// intensity on one canonical plan.
func (p *Plan) Scale(f float64) *Plan {
	out := &Plan{}
	if f <= 0 || p == nil {
		return out
	}
	probScale := f
	durScale := f
	if durScale > 1 {
		durScale = 1
	}
	cap1 := func(v float64) float64 {
		v *= probScale
		if v > 1 {
			return 1
		}
		return v
	}
	for _, e := range p.Episodes {
		switch e.Kind {
		case KindGatewayOutage, KindDecoderDegrade:
			e.EndS = e.StartS + (e.EndS-e.StartS)*durScale
			if e.EndS <= e.StartS {
				continue
			}
		case KindBackhaul:
			e.Drop, e.Duplicate, e.Reorder = cap1(e.Drop), cap1(e.Duplicate), cap1(e.Reorder)
			if e.Drop == 0 && e.Duplicate == 0 && e.Reorder == 0 && e.DelayMS == 0 && e.JitterMS == 0 {
				continue
			}
		case KindDownlink:
			e.Fail = cap1(e.Fail)
			if e.Fail == 0 && e.DelayMS == 0 && e.JitterMS == 0 {
				continue
			}
		}
		out.Episodes = append(out.Episodes, e)
	}
	// Re-validate to renumber IDs over the surviving episodes.
	if err := out.Validate(); err != nil {
		// Scaling preserves validity; reaching here is a bug.
		panic(err)
	}
	return out
}
