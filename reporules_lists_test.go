package openmb

// The lists TestRepoRules reads. Each may only shrink: an entry that no
// longer matches anything fails the test until it is taken off.

// sleepAllowlist names the functions that may call time.Sleep outside tests,
// with how many calls each may hold and what they wait for. The target is a
// list of waits that model time (latency, pacing, backoff), none that poll
// for a condition.
var sleepAllowlist = map[string]allowedSleeps{
	"internal/core.Controller.redialLoop":   {1, "peer redial backoff"},
	"internal/core.Controller.rollbackMove": {1, "polls: one quiet period for the source's last events"},
	"internal/mbox.Runtime.eventFlusher":    {1, "the event coalescing window"},
	"internal/mbox.Runtime.syncEvents":      {1, "polls: the worker's parity clock"},
	"internal/mbox.Runtime.Drain":           {1, "polls: an idle streak of the ingress path"},
	"internal/mbox.Runtime.Close":           {1, "polls: in-flight HandleBurst racers"},
	"internal/netsim.link.process":          {1, "simulated link latency"},
	"internal/sdn.Controller.Route":         {1, "simulated rule-install delay"},
	"internal/bed.Bed.InjectTrace":          {1, "trace replay pacing"},
	"internal/mbox/mbtest.Pace":             {1, "trace replay pacing"},
	"internal/faults.conn.Write":            {1, "injected write delay"},
	"internal/eval.countMoveEvents":         {1, "the measured window between get and reroute"},
	"internal/eval.splitMergeBuffering":     {1, "polls: the halt valve's first buffered packet"},
	"internal/eval.figure7ScaleUpTimeline":  {2, "the scenario's timeline"},
	"cmd/openmb-controller.joinRetry":       {1, "join retry backoff"},
	"cmd/openmb-mb.main":                    {1, "trace replay pacing"},
	"openmb-examples/failover.main":         {1, "polls: events are asynchronous"},
}

type allowedSleeps struct {
	n      int    // time.Sleep calls the function may hold
	reason string // what they wait for
}

// exportedAllowlist names the exported names under internal/ that have no
// non-test caller in any module, each with its reason: test infrastructure,
// or the roadmap item that wires it. The public surface needs no entry:
// examples/, a module outside openmb, calls it. Everything else without a
// caller is deleted, or moves to its package's export_test.go when only
// that package's tests read it.
var exportedAllowlist = map[string]string{
	"internal/packet.Pool.CheckLeaks":                 "test infrastructure: the accounting pool's leak check, which the data-path tests of four packages call",
	"internal/netsim.Network.SetFault":                "test infrastructure: the link fault hook the data-path tests of netsim, bed and the root package install",
	"internal/netsim.DropFraction":                    "test infrastructure: the seeded drop hook the fault tests of netsim, bed and the root package install",
	"internal/obs.HistogramSnapshot.Quantile":         "test infrastructure: the flash crowd's p99 move bound (elastic) and obs's histogram tests",
	"internal/mbox/ips.IPS.Report":                    "test infrastructure: the IPS's counters, which ips's and the root package's burst tests compare",
	"internal/mbox/lb.LB.Assignment":                  "test infrastructure: the LB's binding of a source endpoint, which lb's and the root package's move tests read",
	"internal/mbox/lb.LB.AssignmentCount":             "test infrastructure: the LB's bound flow count, which lb's and the root package's tests read",
	"internal/mbox/lb.LB.BackendLoads":                "test infrastructure: the LB's flows per backend, which lb's and the root package's burst tests compare",
	"internal/bed.Bed.AddStandaloneMB":                "test infrastructure: the testbed",
	"internal/bed.Bed.Colocate":                       "test infrastructure: the testbed",
	"internal/bed.Bed.MB":                             "test infrastructure: the testbed",
	"internal/eval.NewChainRig":                       "test infrastructure: the chain rig",
	"internal/eval.ChainRig.Close":                    "test infrastructure: the chain rig",
	"internal/eval.ChainRig.Delivered":                "test infrastructure: the chain rig",
	"internal/eval.ChainRig.Inject":                   "test infrastructure: the chain rig",
	"internal/eval.ChainRig.Runtime":                  "test infrastructure: the chain rig",
	"internal/faults.New":                             "test infrastructure: the fault-injecting transport",
	"internal/faults.Transport.Conns":                 "test infrastructure: the fault-injecting transport",
	"internal/faults.Transport.KillAll":               "test infrastructure: the fault-injecting transport",
	"internal/faults.Transport.SetPartition":          "test infrastructure: the fault-injecting transport",
	"internal/mbox/mbtest.ProcessOne":                 "test infrastructure: drives a logic without a runtime",
	"internal/mbox/mbtest.CounterLogic.Count":         "test infrastructure: the counter middlebox",
	"internal/mbox/mbtest.CounterLogic.SharedReport":  "test infrastructure: the counter middlebox",
	"internal/mbox/mbtest.CounterLogic.SharedSupport": "test infrastructure: the counter middlebox",
	"internal/state.ConfigTree.Equal":                 "test infrastructure: the config-clone checks of core, state and baseline",
	"internal/elastic.New":                            "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.NewClusterSource":               "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.NewClusterActuator":             "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.Loop.Start":                     "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.Loop.Close":                     "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.ClusterActuator.Seed":           "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/elastic.ClusterActuator.Members":        "ROADMAP item 26: the elasticity loop gets a caller or goes whole",
	"internal/core.Controller.RecoverMove":            "ROADMAP item 5: the daemon's recovery path calls it",
	"internal/sdn.Controller.Barrier":                 "ROADMAP item 9: the fenced hand-over makes it real",
	"internal/core.Controller.ArmFlowTrace":           "ROADMAP item 7: transaction-scoped flow traces",
	"internal/core.Controller.DisarmFlowTrace":        "ROADMAP item 7: transaction-scoped flow traces",
	"internal/core.Controller.FlowTraceRecords":       "ROADMAP item 7: transaction-scoped flow traces",
	"internal/state.FlowIndex.Len":                    "ROADMAP item 1(a): FlowIndex goes whole with the benchmark's index probe",
	"internal/state.FlowIndex.RemoveID":               "ROADMAP item 1(a): FlowIndex goes whole with the benchmark's index probe",
}

// optionsList names every settable field of the library's config structs
// (see modPkg.options). docs/ARCHITECTURE.md's "Tuning knobs" table lists
// exactly these.
var optionsList = []string{
	"core.ClusterOptions.Controller",
	"core.ClusterOptions.Replicas",
	"core.NodeOptions.Advertise",
	"core.NodeOptions.Cluster",
	"core.NodeOptions.FindRetryWindow",
	"core.NodeOptions.Name",
	"core.NodeOptions.PeerCallTimeout",
	"core.Options.BatchSize",
	"core.Options.CallTimeout",
	"core.Options.Compress",
	"core.Options.HeartbeatInterval",
	"core.Options.HeartbeatMisses",
	"core.Options.HelloTimeout",
	"core.Options.PutWorkers",
	"core.Options.QuietPeriod",
	"core.Options.Shards",
	"elastic.Config.Clock",
	"elastic.Config.Cooldown",
	"elastic.Config.HighRate",
	"elastic.Config.HighUtil",
	"elastic.Config.HighWindows",
	"elastic.Config.Interval",
	"elastic.Config.LowRate",
	"elastic.Config.LowWindows",
	"elastic.Config.MaxInstances",
	"mbox.Options.Codec",
	"mbox.Options.QueueSize",
	"mbox.Options.Reconnect",
	"mbox.Options.ReconnectMax",
	"mbox.Options.ReconnectMin",
	"netsim.Options.RingSize",
	"packet.PoolOptions.Accounting",
}

// flagsList names every command-line flag the daemons define (see
// modPkg.flags). docs/ARCHITECTURE.md's "Tuning knobs" table names each.
var flagsList = []string{
	"cmd/openmb-controller -admin",
	"cmd/openmb-controller -advertise",
	"cmd/openmb-controller -batch",
	"cmd/openmb-controller -compress",
	"cmd/openmb-controller -drain-timeout",
	"cmd/openmb-controller -find-retry",
	"cmd/openmb-controller -heartbeat",
	"cmd/openmb-controller -heartbeat-misses",
	"cmd/openmb-controller -hello-timeout",
	"cmd/openmb-controller -join",
	"cmd/openmb-controller -listen",
	"cmd/openmb-controller -log-events",
	"cmd/openmb-controller -metrics",
	"cmd/openmb-controller -node",
	"cmd/openmb-controller -quiet-period",
	"cmd/openmb-controller -shards",
	"cmd/openmb-mb -cache-bytes",
	"cmd/openmb-mb -codec",
	"cmd/openmb-mb -controller",
	"cmd/openmb-mb -drain-timeout",
	"cmd/openmb-mb -kind",
	"cmd/openmb-mb -lb-backends",
	"cmd/openmb-mb -lb-vip",
	"cmd/openmb-mb -metrics",
	"cmd/openmb-mb -name",
	"cmd/openmb-mb -nat-ip",
	"cmd/openmb-mb -pace",
	"cmd/openmb-mb -reconnect",
	"cmd/openmb-mb -reconnect-max",
	"cmd/openmb-mb -reconnect-min",
	"cmd/openmb-mb -trace",
}
