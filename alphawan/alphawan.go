// Package alphawan is the public API of the AlphaWAN library — a faithful
// reproduction of "Towards Next-Generation Global IoT: Empowering Massive
// Connectivity with Harmonious Multi-Network Coexistence" (SIGCOMM 2025).
//
// The library provides:
//
//   - A deterministic LoRaWAN network simulator whose gateway radios model
//     the COTS reception pipeline (per-chain detectors, FCFS decoder
//     dispatch, decode-then-filter) that gives rise to the paper's decoder
//     contention problem.
//   - The AlphaWAN channel-planning stack: log parsing, traffic
//     estimation, the CP optimization problem and its evolutionary solver,
//     and gateway/end-device configuration.
//   - The spectrum-sharing Master node (a real TCP service) that assigns
//     coexisting operators frequency-misaligned channel plans.
//   - A live stack speaking the Semtech UDP packet-forwarder protocol and
//     a ChirpStack-style network server.
//
// Runners for every table and figure of the paper's evaluation are not
// part of this API; `alphawan-sim -list` lists them and `alphawan-sim -run
// ID` runs one.
//
// # Quickstart
//
//	net := alphawan.NewNetwork(1, alphawan.Urban(1))
//	op := net.AddOperator()
//	cfgs := alphawan.StandardConfigs(alphawan.AS923, 3, op.Sync)
//	for i := 0; i < 3; i++ {
//		op.AddGateway(alphawan.RAK7268CV2, alphawan.Pt(float64(i)*5, 0), cfgs[i])
//	}
//	// ... add nodes, probe capacity, plan, re-probe (see examples/).
package alphawan

import (
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events/sinks"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// Simulation time, in microseconds.
const (
	Millisecond = des.Millisecond
	Second      = des.Second
)

// DR is a LoRaWAN data-rate index (DR0 slowest … DR5 fastest).
type DR = lora.DR

// The slowest and fastest data rates.
const (
	DR0 = lora.DR0
	DR5 = lora.DR5
)

// Channel is one LoRa uplink channel.
type Channel = region.Channel

// Channel grids.
var (
	// AS923 is the paper's 8-channel case-study band.
	AS923 = region.AS923
	// Testbed is the 4.8 MHz band of the paper's evaluation testbed.
	Testbed = region.Testbed
)

// MHz constructs a frequency from megahertz.
func MHz(v float64) region.Hz { return region.MHz(v) }

// Antenna is a gateway antenna pattern; the zero value is omnidirectional.
type Antenna = phy.Antenna

// Pt constructs a position in meters.
func Pt(x, y float64) phy.Point { return phy.Pt(x, y) }

// Urban is the paper's testbed-class urban propagation.
var Urban = phy.Urban

// RadioConfig is a gateway channel configuration.
type RadioConfig = radio.Config

// RAK7268CV2 is the paper's case-study gateway (SX1302, 16 decoders).
var RAK7268CV2 = radio.Models[3]

// Scenario composition.
type (
	// Network is a composed simulation scenario.
	Network = sim.Network
	// Operator is one network operator in a scenario.
	Operator = sim.Operator
	// NetworkStats aggregates one network's outcomes.
	NetworkStats = metrics.NetworkStats
)

// NewNetwork creates a simulation scenario with a seed and environment.
func NewNetwork(seed int64, env phy.Environment) *Network { return sim.New(seed, env) }

// StandardConfigs yields homogeneous standard channel plans.
var StandardConfigs = baseline.StandardConfigs

// PlanInput configures a planning run.
type PlanInput = planner.Input

// Plan runs the full intra-network planning pipeline.
func Plan(in PlanInput) (*planner.Result, error) { return planner.Plan(in) }

// Spectrum sharing (the inter-network primitive): the TCP Master node.
var (
	NewMaster  = master.NewServer
	DialMaster = master.Dial
	BandSpecOf = master.FromBand
)

// Live stack (real UDP + network server).
type (
	// BridgeOptions configures the UDP packet-forwarder bridge (server
	// side); Handler is required.
	BridgeOptions = udpfwd.Options
	// UplinkFrame is one decoded uplink as the bridge's handler sees it.
	UplinkFrame = udpfwd.UplinkFrame
)

// Live stack constructors: the ChirpStack-style network server core, the
// bridge that acknowledges gateways, parses rxpks on a worker pool and
// hands each uplink to BridgeOptions.Handler, and the gateway-side
// packet forwarder.
var (
	NewNetServer   = netserver.New
	NewBatchBridge = udpfwd.NewBatchBridge
	NewForwarder   = udpfwd.NewForwarder
)

// Observability. Every layer publishes typed packet-lifecycle events on
// a deterministic in-process bus (subscribers run synchronously in
// registration order, so observers never perturb a seeded run). The
// topics live on the composed scenario — e.g. Network.Med.Deliveries,
// Network.Col.Outcomes — and these are the ready-made consumers.
var (
	// AttachTracer wires a JSONL lifecycle tracer to every layer of a
	// composed scenario (attach after composing, before running).
	AttachTracer = sinks.Attach
	// AttachSummary subscribes a periodic run-summary printer to a
	// scenario's collector.
	AttachSummary = sinks.AttachSummary
)
