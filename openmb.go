// Package openmb is a software-defined middlebox networking (SDMBN)
// framework: a Go reproduction of "Design and Implementation of a Framework
// for Software-Defined Middlebox Networking" (Gember et al., 2013).
//
// OpenMB gives control applications fine-grained, programmatic control over
// all middlebox state — configuration, supporting, and reporting state,
// per-flow or shared — in tandem with SDN control over network forwarding.
// The package re-exports what a program outside this module needs:
//
//   - Controller: the OpenMB middlebox controller with the northbound API
//     (ReadConfig, WriteConfig, DelConfig, Stats, MoveInternal,
//     CloneSupport, MergeInternal) and introspection-event subscription.
//     Every controller is one node of a cluster (alone, a one-node
//     cluster), with peer links, a replicated middlebox directory and
//     cross-node operations;
//   - Runtime + Logic: the middlebox side — host any Logic implementation
//     in a Runtime and connect it to a controller over TCP or in-memory
//     transports. A Logic of your own keeps its per-flow state in an
//     embedded Table, its shared state behind GetShared/PutShared, and its
//     configuration in a ConfigTree;
//   - Middleboxes: Bro-like IPS, PRADS-like monitor, SmartRE-like encoder/
//     decoder and NAT, all OpenMB-enabled;
//   - Testbed and Apps: an in-process deployment (switch fabric, SDN
//     controller, OpenMB controller) and the paper's control applications
//     over it — live migration, elastic scaling, and failure recovery.
//
// Each example under examples/ is a module of its own that uses this
// package alone: examples/quickstart shows the minimal end-to-end flow, and
// examples/custommb writes its own middlebox and moves, clones and merges
// its state. docs/ARCHITECTURE.md maps every subsystem, and
// docs/REPRODUCTION.md records paper-versus-measured results for every
// artefact of the paper's evaluation.
package openmb

import (
	"net/netip"

	"openmb/internal/apps"
	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/mbox/re"
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
// middlebox directory with quorum-committed ownership changes. Exit
// gracefully with Shutdown (drain, then announce departure) or abruptly
// with Close (crash semantics — peers keep this node in their quorum
// denominators).
type Controller = core.Controller

// ControllerOptions tunes the controller (quiet period, compression, chunk
// batch size, transaction-router shards, put pipeline depth).
type ControllerOptions = core.Options

// NewController creates an OpenMB controller: a one-node cluster.
func NewController(opts ControllerOptions) *Controller { return core.NewController(opts) }

// NodeOptions configures a controller as a named cluster node (name,
// advertised address, peer, pull and find-retry timeouts, and its
// ControllerOptions in Cluster.Controller).
type NodeOptions = core.NodeOptions

// NewNode creates a controller as a named cluster node.
func NewNode(opts NodeOptions) *Controller { return core.NewNode(opts) }

// Runtime hosts one middlebox instance and implements its southbound API.
type Runtime = mbox.Runtime

// RuntimeOptions configures a Runtime.
type RuntimeOptions = mbox.Options

// Logic is the contract a middlebox implements (see mbox.Logic). A logic
// written outside this module has per-flow state only through a Table[V]
// embedded in its struct, and is passed to NewRuntime by pointer: the
// runtime finds the table once and runs the per-flow get, put and delete
// on it. examples/custommb is one.
type Logic = mbox.Logic

// Context carries per-packet interaction between a Runtime and its Logic.
type Context = mbox.Context

// NewRuntime hosts logic in a runtime under the given instance name.
func NewRuntime(name string, logic Logic, opts RuntimeOptions) *Runtime {
	return mbox.New(name, logic, opts)
}

// Table is a middlebox's per-flow state: one class of entries keyed by
// FlowID under one Keying, and the one mutex that serializes them — and
// everything else the logic's ProcessBurst touches — against the
// southbound calls. Init it with the value's TableCodec; on the packet path
// reach entries only through Touch and Insert, with the lock held.
type Table[V any] = mbox.Table[V]

// TableCodec is what a middlebox tells its Table about one entry's value:
// its wire form, its decoding, its merge rule for an incoming entry and its
// removal.
type TableCodec[V any] = mbox.Codec[V]

// Keying is a Table's keying rule: which entry a flow's ID names, and which
// gets are finer than that entry.
type Keying = mbox.Keying

// The keying rules.
const (
	Canonical        = mbox.Canonical
	CanonicalSrcOnly = mbox.CanonicalSrcOnly
	SrcEndpoint      = mbox.SrcEndpoint
)

// FlowID is the compact, comparable identity of a flow that keys a Table.
type FlowID = packet.FlowID

// Class is the role a piece of state plays: a Table's class, and the class
// GetShared and PutShared are asked for.
type Class = state.Class

// The state classes a logic exports.
const (
	Supporting = state.Supporting
	Reporting  = state.Reporting
)

// ErrNoSharedState is what GetShared and PutShared return for a class the
// middlebox keeps no shared state of; the controller skips that class.
var ErrNoSharedState = mbox.ErrNoSharedState

// ConfigTree is a middlebox's hierarchical configuration, which a Logic's
// Config returns and the northbound config calls read and write.
type ConfigTree = state.ConfigTree

// NewConfigTree creates an empty configuration tree.
func NewConfigTree() *ConfigTree { return state.NewConfigTree() }

// MemTransport is an in-memory transport for tests and single-process
// deployments.
type MemTransport = sbi.MemTransport

// NewMemTransport creates an isolated in-memory transport namespace.
func NewMemTransport() *MemTransport { return sbi.NewMemTransport() }

// TCPTransport connects middleboxes to controllers over TCP.
type TCPTransport = sbi.TCPTransport

// Codec names an SBI wire codec; see RuntimeOptions.Codec.
type Codec = sbi.Codec

// ParseCodec validates a codec name ("" means JSON, the frozen wire meaning
// of an absent announcement; new runtimes default to binary at the
// RuntimeOptions layer).
func ParseCodec(s string) (Codec, error) { return sbi.ParseCodec(s) }

// Event is a middlebox-raised notification (reprocess or introspection).
type Event = sbi.Event

// StatsReply answers the northbound Stats call, and a Logic's Stats.
type StatsReply = sbi.StatsReply

// Packet is the packet model used throughout the framework.
type Packet = packet.Packet

// FieldMatch is the header-field list naming sets of flows in the APIs.
type FieldMatch = packet.FieldMatch

// MatchAll matches every flow.
var MatchAll = packet.MatchAll

// ParseFieldMatch parses matches like "[nw_src=10.0.0.0/8,tp_dst=80]".
func ParseFieldMatch(s string) (FieldMatch, error) { return packet.ParseFieldMatch(s) }

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

// NewNAT creates a NAT translating to the external address extIP.
func NewNAT(extIP netip.Addr) *NAT { return nat.New(extIP) }

// Hop is one forwarding step of a route (Testbed.SDN.Route); control
// applications use routes for the route(k,r) half of coordinated updates.
type Hop = sdn.Hop

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

// MetricsRegistry renders registered collectors as Prometheus text
// (docs/ARCHITECTURE.md "Observability"): Register a Controller, Runtime
// or Testbed, and ServeMetrics serves it.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics listens on addr and serves GET /metrics rendered from reg in
// a background goroutine, returning the bound address and a close function.
func ServeMetrics(addr string, reg *MetricsRegistry) (string, func(), error) {
	return obshttp.Serve(addr, reg)
}

// Trace is a time-ordered synthetic packet trace.
type Trace = trace.Trace

// RedundantTraceConfig parameterizes RedundantTrace.
type RedundantTraceConfig = trace.RedundantConfig

// RedundantTrace generates the high-redundancy workload for RE experiments.
func RedundantTrace(cfg RedundantTraceConfig) *Trace { return trace.Redundant(cfg) }
