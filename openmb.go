// Package openmb is a software-defined middlebox networking (SDMBN)
// framework: a Go reproduction of "Design and Implementation of a Framework
// for Software-Defined Middlebox Networking" (Gember et al., 2013).
//
// OpenMB gives control applications fine-grained, programmatic control over
// all middlebox state — configuration, supporting, and reporting state,
// per-flow or shared — in tandem with SDN control over network forwarding.
// The package re-exports the framework's public surface:
//
//   - Controller: the OpenMB middlebox controller with the northbound API
//     (ReadConfig, WriteConfig, Stats, MoveInternal, CloneSupport,
//     MergeInternal) and introspection-event subscription. Every controller
//     is one node of a cluster (alone, a one-node cluster), with peer links,
//     a replicated middlebox directory, cross-node operations (Pull) and
//     recovery of a move whose coordinator died (RecoverMove);
//   - Runtime + Logic: the middlebox side — host any Logic implementation
//     in a Runtime and connect it to a controller over TCP or in-memory
//     transports;
//   - Middleboxes: Bro-like IPS, PRADS-like monitor, SmartRE-like encoder/
//     decoder, NAT, and load balancer, all OpenMB-enabled;
//   - Network: a software switch fabric with an SDN controller (Route) for
//     coordinating forwarding changes with state operations;
//   - Apps: the control applications of the paper — live migration, elastic
//     scaling, and failure recovery;
//   - Traffic: seeded synthetic workload generators.
//
// The quickstart in examples/quickstart shows the minimal end-to-end flow;
// docs/ARCHITECTURE.md maps every subsystem, and docs/REPRODUCTION.md records
// paper-versus-measured results for every artefact of the paper's evaluation.
package openmb

import (
	"openmb/internal/apps"
	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/elastic"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/mbox/re"
	"openmb/internal/netsim"
	"openmb/internal/obs"
	"openmb/internal/obs/obshttp"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/sdn"
	"openmb/internal/state"
	"openmb/internal/trace"
)

// Controller is the OpenMB middlebox controller (the paper's primary
// contribution), and one node of a cluster. Create with NewController (a
// one-node cluster named "node") or NewNode (a named node), start with
// Serve, and drive it through the northbound API. MoveInternal,
// CloneSupport and MergeInternal find their middleboxes the same way on
// every controller: a middlebox another node owns is pulled here (Pull), and
// one this node owns but that is reconnecting is waited for (find-retry).
// Join links it to an existing cluster's peers, over which it replicates a
// middlebox directory with quorum-committed ownership changes; RecoverMove
// restarts a move whose coordinator died. Exit gracefully with Shutdown
// (drain, then announce departure) or abruptly with Close (crash semantics —
// peers keep this node in their quorum denominators).
type Controller = core.Controller

// ControllerOptions tunes the controller (quiet period, compression, chunk
// batch size, transaction-router shards, put pipeline depth).
type ControllerOptions = core.Options

// NewController creates an OpenMB controller: a one-node cluster.
func NewController(opts ControllerOptions) *Controller { return core.NewController(opts) }

// Node is the controller's cluster-node name, the same type as Controller.
type Node = core.Node

// NodeOptions configures a controller as a named cluster node (name,
// advertised address, peer, pull and find-retry timeouts, and its
// ControllerOptions under Cluster).
type NodeOptions = core.NodeOptions

// ClusterOptions carries a node's ControllerOptions (NodeOptions.Cluster).
type ClusterOptions = core.ClusterOptions

// NewNode creates a controller as a named cluster node.
func NewNode(opts NodeOptions) *Node { return core.NewNode(opts) }

// Runtime hosts one middlebox instance and implements its southbound API.
type Runtime = mbox.Runtime

// RuntimeOptions configures a Runtime.
type RuntimeOptions = mbox.Options

// Logic is the contract concrete middleboxes implement. Its methods name
// types of the module's internal packages, so a logic outside the module
// wraps one of the middleboxes below (embedding *NAT, say, or Logic), which
// keeps the middlebox's per-flow state: that comes only from the table the
// middlebox embeds, not from methods of the wrapper (see mbox.Logic).
type Logic = mbox.Logic

// Context carries per-packet interaction between a Runtime and its Logic.
type Context = mbox.Context

// NewRuntime hosts logic in a runtime under the given instance name.
func NewRuntime(name string, logic Logic, opts RuntimeOptions) *Runtime {
	return mbox.New(name, logic, opts)
}

// Transport abstracts controller/middlebox connectivity.
type Transport = sbi.Transport

// TCPTransport connects middleboxes to controllers over TCP.
type TCPTransport = sbi.TCPTransport

// MemTransport is an in-memory transport for tests and single-process
// deployments.
type MemTransport = sbi.MemTransport

// NewMemTransport creates an isolated in-memory transport namespace.
func NewMemTransport() *MemTransport { return sbi.NewMemTransport() }

// Codec names an SBI wire codec; see RuntimeOptions.Codec.
type Codec = sbi.Codec

// Supported SBI codecs: the length-prefixed binary fast path (the default,
// negotiated at hello) and newline-delimited JSON (the paper prototype's
// format, kept as the compatibility and debug path).
const (
	CodecJSON   = sbi.CodecJSON
	CodecBinary = sbi.CodecBinary
)

// ParseCodec validates a codec name ("" means JSON, the frozen wire meaning
// of an absent announcement; new runtimes default to binary at the
// RuntimeOptions layer).
func ParseCodec(s string) (Codec, error) { return sbi.ParseCodec(s) }

// Event is a middlebox-raised notification (reprocess or introspection).
type Event = sbi.Event

// StatsReply answers the northbound Stats call.
type StatsReply = sbi.StatsReply

// Packet is the packet model used throughout the framework.
type Packet = packet.Packet

// FlowKey is a directed 5-tuple, usable as a map key.
type FlowKey = packet.FlowKey

// FieldMatch is the header-field list naming sets of flows in the APIs.
type FieldMatch = packet.FieldMatch

// MatchAll matches every flow.
var MatchAll = packet.MatchAll

// ParseFieldMatch parses matches like "[nw_src=10.0.0.0/8,tp_dst=80]".
func ParseFieldMatch(s string) (FieldMatch, error) { return packet.ParseFieldMatch(s) }

// ConfigEntry is one leaf of a middlebox configuration tree.
type ConfigEntry = state.Entry

// Middlebox implementations.
type (
	// IPS is the Bro-like intrusion prevention system.
	IPS = ips.IPS
	// Monitor is the PRADS-like passive asset monitor.
	Monitor = monitor.Monitor
	// REEncoder is the SmartRE-like redundancy elimination encoder.
	REEncoder = re.Encoder
	// REDecoder is the SmartRE-like redundancy elimination decoder.
	REDecoder = re.Decoder
	// NAT is the network address translator.
	NAT = nat.NAT
	// LoadBalancer is the Balance-like TCP load balancer.
	LoadBalancer = lb.LB
	// Backend is one load-balanced server.
	Backend = lb.Backend
)

// NewIPS creates a Bro-like IPS.
func NewIPS() *IPS { return ips.New() }

// NewMonitor creates a PRADS-like monitor.
func NewMonitor() *Monitor { return monitor.New() }

// NewREEncoder creates an RE encoder with the given cache capacity in bytes
// (0 selects the default).
func NewREEncoder(cacheBytes int) *REEncoder { return re.NewEncoder(cacheBytes) }

// NewREDecoder creates an RE decoder.
func NewREDecoder(cacheBytes int) *REDecoder { return re.NewDecoder(cacheBytes) }

// Network is the software switch fabric.
type Network = netsim.Network

// NetworkOptions configures a Network (per-link ring size).
type NetworkOptions = netsim.Options

// Switch is a software switch with a priority flow table.
type Switch = netsim.Switch

// Host is a terminal endpoint recording received packets.
type Host = netsim.Host

// PacketPool recycles packets for the data path. Packets handed
// to the network are borrowed: see the netsim package docs for the
// borrow/release contract.
type PacketPool = packet.Pool

// PacketPoolOptions configures a PacketPool (accounting mode enables the
// leak/double-release invariant checker).
type PacketPoolOptions = packet.PoolOptions

// NewPacketPool creates a packet pool.
func NewPacketPool(opts PacketPoolOptions) *PacketPool { return packet.NewPool(opts) }

// NewNetwork creates an empty network with default options.
func NewNetwork() *Network { return netsim.New() }

// NewNetworkWithOptions creates an empty network with explicit options.
func NewNetworkWithOptions(opts NetworkOptions) *Network { return netsim.NewWithOptions(opts) }

// Rule is one switch flow-table entry.
type Rule = netsim.Rule

// Fault is a link-level fault-injection verdict; see Network.SetFault.
type Fault = netsim.Fault

// Fault verdicts.
const (
	FaultNone      = netsim.FaultNone
	FaultDrop      = netsim.FaultDrop
	FaultDuplicate = netsim.FaultDuplicate
)

// Ingress is the pseudo-port injected packets enter through; use it as the
// "from" side of SetFault to fault-inject external arrivals.
const Ingress = netsim.Ingress

// DropFraction returns a fault hook dropping packets with probability p,
// deterministically from seed.
func DropFraction(p float64, seed int64) func(*Packet) Fault { return netsim.DropFraction(p, seed) }

// NewSwitch attaches a new switch to the network.
func NewSwitch(n *Network, name string) *Switch { return netsim.NewSwitch(n, name) }

// NewHost attaches a new host to the network.
func NewHost(n *Network, name string, limit int) *Host { return netsim.NewHost(n, name, limit) }

// SDNController manages flow tables across switches; control applications
// use it for the route(k,r) half of coordinated updates.
type SDNController = sdn.Controller

// Hop is one forwarding step of a route.
type Hop = sdn.Hop

// NewSDNController creates an SDN controller.
func NewSDNController() *SDNController { return sdn.NewController() }

// Apps bundles the paper's control applications over a controller.
type Apps = apps.Env

// MappingShadow mirrors a NAT's critical state from introspection events.
type MappingShadow = apps.MappingShadow

// NewMappingShadow subscribes a shadow to the named NAT's mapping events.
func NewMappingShadow(ctrl *Controller, natName string) (*MappingShadow, error) {
	return apps.NewMappingShadow(ctrl, natName)
}

// Testbed assembles a full in-process deployment: network, SDN controller,
// OpenMB controller, and middleboxes, wired over an in-memory transport.
type Testbed = bed.Bed

// NewTestbed creates an empty testbed.
func NewTestbed(opts ControllerOptions) (*Testbed, error) { return bed.New(opts) }

// Observability plane (docs/ARCHITECTURE.md "Observability"): components
// register collectors into a MetricsRegistry; internal/obs/obshttp (or the
// daemons' -metrics flag) serves the registry as a Prometheus text-format
// /metrics endpoint. Controller (Node), Runtime, Network, and Testbed all
// implement MetricsCollector.
type (
	// MetricsRegistry renders registered collectors as Prometheus text.
	MetricsRegistry = obs.Registry
	// MetricsCollector contributes series to a scrape.
	MetricsCollector = obs.Collector
	// MetricsEmitter receives counter/gauge/histogram samples.
	MetricsEmitter = obs.Emitter
	// TraceSpec arms a middlebox flow tracer: a FieldMatch predicate
	// (compiled once at arm time) plus a record budget.
	TraceSpec = obs.TraceSpec
	// TraceRecord is one per-hop observation of a matched packet.
	TraceRecord = obs.TraceRecord
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsCollectorFunc adapts a function to MetricsCollector.
func MetricsCollectorFunc(f func(e *MetricsEmitter)) MetricsCollector { return obs.CollectorFunc(f) }

// ServeMetrics listens on addr and serves GET /metrics rendered from reg in
// a background goroutine, returning the bound address and a close function.
func ServeMetrics(addr string, reg *MetricsRegistry) (string, func(), error) {
	return obshttp.Serve(addr, reg)
}

// Elasticity loop (docs/ARCHITECTURE.md "Elasticity loop"): a Stratos-style
// placement controller that samples live load signals and acts through the
// northbound API — CloneSupport+MoveInternal scale-out,
// MoveInternal+MergeInternal scale-in — with hysteresis and cooldown
// damping.
type (
	// ElasticLoop is the placement controller; create with NewElasticLoop,
	// run with Start or drive with Tick.
	ElasticLoop = elastic.Loop
	// ElasticConfig tunes thresholds, hysteresis windows, and cooldown.
	ElasticConfig = elastic.Config
	// ElasticTotals snapshots the loop's decision counters.
	ElasticTotals = elastic.Totals
	// ElasticSource produces deployment load samples.
	ElasticSource = elastic.Source
	// ElasticActuator executes the loop's decisions.
	ElasticActuator = elastic.Actuator
	// ElasticClusterSource samples the co-located runtimes registered
	// with it.
	ElasticClusterSource = elastic.ClusterSource
	// ElasticClusterActuator acts on a live controller through the
	// northbound operations and a GroupDriver.
	ElasticClusterActuator = elastic.ClusterActuator
	// ElasticGroupDriver supplies the deployment-specific halves of scaling:
	// spawning/retiring instances and steering traffic.
	ElasticGroupDriver = elastic.GroupDriver
	// ElasticMember is one instance of an elastic group.
	ElasticMember = elastic.Member
)

// NewElasticLoop creates a placement controller over the source and actuator.
func NewElasticLoop(cfg ElasticConfig, src ElasticSource, act ElasticActuator) *ElasticLoop {
	return elastic.New(cfg, src, act)
}

// NewElasticClusterSource creates a load source sampling the runtimes
// registered with it.
func NewElasticClusterSource() *ElasticClusterSource {
	return elastic.NewClusterSource()
}

// NewElasticClusterActuator creates an actuator over the controller, acting
// through drv. src may be nil to skip sampling registration.
func NewElasticClusterActuator(c *Controller, src *ElasticClusterSource, drv ElasticGroupDriver) *ElasticClusterActuator {
	return elastic.NewClusterActuator(c, src, drv)
}

// Trace is a time-ordered synthetic packet trace.
type Trace = trace.Trace

// CloudTrace generates the campus-to-cloud workload.
func CloudTrace(cfg trace.CloudConfig) *Trace { return trace.Cloud(cfg) }

// UnivDCTrace generates the heavy-tailed data-center workload.
func UnivDCTrace(cfg trace.UnivDCConfig) *Trace { return trace.UnivDC(cfg) }

// RedundantTrace generates the high-redundancy workload for RE experiments.
func RedundantTrace(cfg trace.RedundantConfig) *Trace { return trace.Redundant(cfg) }

// Trace generator configurations.
type (
	// CloudTraceConfig parameterizes CloudTrace.
	CloudTraceConfig = trace.CloudConfig
	// UnivDCTraceConfig parameterizes UnivDCTrace.
	UnivDCTraceConfig = trace.UnivDCConfig
	// RedundantTraceConfig parameterizes RedundantTrace.
	RedundantTraceConfig = trace.RedundantConfig
)
