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
//   - The spectrum-sharing Master node (in-process registry or real TCP
//     service) that assigns coexisting operators frequency-misaligned
//     channel plans.
//   - A live stack speaking the Semtech UDP packet-forwarder protocol and
//     a ChirpStack-style network server.
//   - Runners for every table and figure of the paper's evaluation
//     (package list via Experiments).
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
	"github.com/alphawan/alphawan/internal/alphawan/agent"
	"github.com/alphawan/alphawan/internal/alphawan/cp"
	"github.com/alphawan/alphawan/internal/alphawan/evolve"
	"github.com/alphawan/alphawan/internal/alphawan/master"
	"github.com/alphawan/alphawan/internal/alphawan/planner"
	"github.com/alphawan/alphawan/internal/baseline"
	"github.com/alphawan/alphawan/internal/des"
	"github.com/alphawan/alphawan/internal/events/sinks"
	"github.com/alphawan/alphawan/internal/experiments"
	"github.com/alphawan/alphawan/internal/gateway"
	"github.com/alphawan/alphawan/internal/lora"
	"github.com/alphawan/alphawan/internal/medium"
	"github.com/alphawan/alphawan/internal/metrics"
	"github.com/alphawan/alphawan/internal/netserver"
	"github.com/alphawan/alphawan/internal/node"
	"github.com/alphawan/alphawan/internal/phy"
	"github.com/alphawan/alphawan/internal/radio"
	"github.com/alphawan/alphawan/internal/region"
	"github.com/alphawan/alphawan/internal/sim"
	"github.com/alphawan/alphawan/internal/udpfwd"
)

// Simulation time.
type (
	// Time is simulation time in microseconds.
	Time = des.Time
)

// Time constants.
const (
	Millisecond = des.Millisecond
	Second      = des.Second
	Minute      = des.Minute
	Hour        = des.Hour
)

// LoRa PHY types.
type (
	// DR is a LoRaWAN data-rate index (DR0 slowest … DR5 fastest).
	DR = lora.DR
	// SF is a LoRa spreading factor.
	SF = lora.SF
	// SyncWord distinguishes networks on the air.
	SyncWord = lora.SyncWord
)

// Data rates.
const (
	DR0 = lora.DR0
	DR1 = lora.DR1
	DR2 = lora.DR2
	DR3 = lora.DR3
	DR4 = lora.DR4
	DR5 = lora.DR5
)

// Spectrum types.
type (
	// Hz is a frequency.
	Hz = region.Hz
	// Channel is one LoRa uplink channel.
	Channel = region.Channel
	// Band is a channel grid (e.g. AS923, US915).
	Band = region.Band
)

// Standard bands.
var (
	US915   = region.US915
	EU868   = region.EU868
	AS923   = region.AS923
	Testbed = region.Testbed
)

// MHz constructs a frequency from megahertz.
func MHz(v float64) Hz { return region.MHz(v) }

// Propagation and geometry.
type (
	// Environment is a propagation model.
	Environment = phy.Environment
	// Point is a position in meters.
	Point = phy.Point
	// Antenna is a gateway antenna pattern.
	Antenna = phy.Antenna
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return phy.Pt(x, y) }

// Propagation profiles.
var (
	// Urban is the paper's testbed-class urban propagation.
	Urban = phy.Urban
	// Suburban reaches farther (the paper's >10 km quote).
	Suburban = phy.Suburban
	// DenseUrban matches the Appendix D trace SNR range (-15…+5 dB).
	DenseUrban = phy.DenseUrban
)

// Omni returns an omnidirectional antenna with the given gain.
func Omni(gainDBi float64) Antenna { return phy.Omni(gainDBi) }

// Directional12dBi returns the RAK 12 dBi panel of Figure 7.
func Directional12dBi(boresightRad float64) Antenna {
	return phy.Directional12dBi(boresightRad)
}

// Gateway radios (Table 4).
type (
	// Chipset describes a gateway radio's reception resources.
	Chipset = radio.Chipset
	// GatewayModel is a commercial gateway product.
	GatewayModel = radio.GatewayModel
	// RadioConfig is a gateway channel configuration.
	RadioConfig = radio.Config
)

// Chipset profiles and the Table 4 model list.
var (
	SX1301        = radio.SX1301
	SX1302        = radio.SX1302
	SX1303        = radio.SX1303
	GatewayModels = radio.Models
	// RAK7268CV2 is the paper's case-study gateway (SX1302, 16 decoders).
	RAK7268CV2 = radio.Models[3]
)

// Scenario composition.
type (
	// Network is a composed simulation scenario.
	Network = sim.Network
	// Operator is one network operator in a scenario.
	Operator = sim.Operator
	// Node is a LoRaWAN end device.
	Node = node.Node
	// NetworkStats aggregates one network's outcomes.
	NetworkStats = metrics.NetworkStats
	// Transmission is one packet on the air.
	Transmission = medium.Transmission
)

// NewNetwork creates a simulation scenario with a seed and environment.
func NewNetwork(seed int64, env Environment) *Network { return sim.New(seed, env) }

// TotalCapacity sums a capacity probe across operators.
var TotalCapacity = sim.TotalCapacity

// Baseline strategies.
var (
	// StandardConfigs yields homogeneous standard channel plans.
	StandardConfigs = baseline.StandardConfigs
	// RandomCPConfigs yields the Random CP baseline configurations.
	RandomCPConfigs = baseline.RandomCPConfigs
)

// Channel planning (the paper's intra-network primitive).
type (
	// PlanInput configures a planning run.
	PlanInput = planner.Input
	// PlanResult is the planner's output.
	PlanResult = planner.Result
	// NodePlan is one device's planned settings.
	NodePlan = planner.NodePlan
	// PlanGateway identifies a gateway to the planner.
	PlanGateway = planner.GatewayInfo
	// CPProblem is the raw optimization problem (§4.3.1).
	CPProblem = cp.Problem
	// CPAssignment is one candidate solution.
	CPAssignment = cp.Assignment
	// SolverOptions tunes the evolutionary solver.
	SolverOptions = evolve.Options
)

// Plan runs the full intra-network planning pipeline.
func Plan(in PlanInput) (*PlanResult, error) { return planner.Plan(in) }

// SolveCP runs the evolutionary solver on a raw CP problem.
func SolveCP(p *CPProblem, opt SolverOptions) (*evolve.Result, error) {
	return evolve.Solve(p, opt)
}

// DefaultSolverOptions returns solver settings sized for the paper's
// scales.
var DefaultSolverOptions = evolve.DefaultOptions

// Spectrum sharing (the inter-network primitive).
type (
	// Master is the TCP Master node server.
	Master = master.Server
	// MasterClient is an operator-side connection.
	MasterClient = master.Client
	// MasterRegistry is the in-process allocation state.
	MasterRegistry = master.Registry
	// BandSpec is the wire description of a shared band.
	BandSpec = master.BandSpec
	// Allocation is one operator's assigned plan.
	Allocation = master.Allocation
)

// Master node constructors.
var (
	NewMaster         = master.NewServer
	DialMaster        = master.Dial
	NewMasterRegistry = master.NewRegistry
	BandSpecOf        = master.FromBand
)

// Gateway agents (configuration distribution + reboot).
type (
	// Agent applies channel configurations to a gateway.
	Agent = agent.Agent
)

// NewAgent creates a gateway agent.
var NewAgent = agent.New

// Live stack (real UDP + network server).
type (
	// NetServer is the ChirpStack-style network server core.
	NetServer = netserver.Server
	// BatchBridge is the UDP packet-forwarder bridge (server side): it
	// acknowledges gateways, parses rxpks on a worker pool and hands each
	// uplink to BridgeOptions.Handler.
	BatchBridge = udpfwd.BatchBridge
	// BridgeOptions configures a BatchBridge; Handler is required.
	BridgeOptions = udpfwd.Options
	// UplinkFrame is one decoded uplink as the bridge's handler sees it.
	UplinkFrame = udpfwd.UplinkFrame
	// Forwarder is the gateway-side packet forwarder.
	Forwarder = udpfwd.Forwarder
)

// Live stack constructors.
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
type (
	// Delivery is one successful packet-gateway reception edge.
	Delivery = medium.Delivery
	// PacketDrop is one failed packet-gateway edge with its drop reason.
	PacketDrop = medium.Drop
	// Outcome is the collector's per-packet verdict: delivered somewhere,
	// or lost with an attributed cause (the Figure 4/13 classification).
	Outcome = metrics.Outcome
	// LossCause classifies why a lost packet died.
	LossCause = metrics.Cause
	// GatewayUplink is a decoded own-network frame leaving a gateway for
	// the backhaul.
	GatewayUplink = gateway.Uplink
	// GatewayConfigEvent marks a gateway going offline/online around a
	// reconfiguration reboot.
	GatewayConfigEvent = gateway.ConfigEvent
	// Tracer writes one JSONL record per packet-lifecycle edge.
	Tracer = sinks.Tracer
	// Summary prints periodic sent/received/loss-cause progress lines.
	Summary = sinks.Summary
)

// Observability sink constructors.
var (
	// AttachTracer wires a JSONL lifecycle tracer to every layer of a
	// composed scenario (attach after composing, before running).
	AttachTracer = sinks.Attach
	// AttachSummary subscribes a periodic run-summary printer to a
	// scenario's collector.
	AttachSummary = sinks.AttachSummary
	// NewTracer creates an unattached tracer; wire it to individual
	// layers with its Observe methods.
	NewTracer = sinks.NewTracer
)

// Experiments exposes the paper-reproduction runners (one per table and
// figure of the evaluation).
type (
	// Experiment is one table/figure reproduction.
	Experiment = experiments.Experiment
	// ExperimentResult is an experiment's output.
	ExperimentResult = experiments.Result
)

// Experiment registry access.
var (
	Experiments   = experiments.All
	GetExperiment = experiments.Get
)
