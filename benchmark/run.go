package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"openmb/internal/core"
)

// procStart anchors setup_s at (almost) process start: package variables
// initialise before main runs.
var procStart = time.Now()

// pinnedOptions is the controller configuration every workload runs, fixed
// here so the numbers do not move when library defaults do: chunk batch 32,
// a 20 ms quiet period, shards and put workers left on automatic. CallTimeout
// is the deadline that turns a stalled southbound call into a counted
// failure instead of a hang.
func pinnedOptions() core.Options {
	return core.Options{
		QuietPeriod: 20 * time.Millisecond,
		BatchSize:   32,
		CallTimeout: 10 * time.Second,
	}
}

// pinnedText is the meta rendering of the pinned configuration.
const pinnedText = "codec=binary batch=32 burst=on zerocopy=on coalesce=on shards=auto putworkers=default quiet=20ms sdn_delay=0"

// sizes holds every workload dimension; -scale picks the set.
type sizes struct {
	chainFlows    int // chain-sat, chain-ping
	chainFlowsBig int // chain-flows16k
	chainWarmPkts int // fixed-work warm-up, part of set-up
	moveChunks    int // move-idle, move-xnode
	warmMoves     int
	scaleFlows    int // scaleup-live
	scaleRate     int // packets per second, open loop
	warmCycles    int
	setupReps     int
	probeFor      time.Duration // each timed isolation probe
	probePkts     int           // each saturating one-hop probe
}

var scales = map[string]sizes{
	"full": {
		chainFlows: 256, chainFlowsBig: 16384, chainWarmPkts: 65536,
		moveChunks: 20000, warmMoves: 2,
		scaleFlows: 8192, scaleRate: 20000, warmCycles: 1,
		setupReps: 3, probeFor: 400 * time.Millisecond, probePkts: 1 << 17,
	},
	// smoke keeps every code path and every check, at sizes that run in
	// well under two seconds per workload (the tests use it).
	"smoke": {
		chainFlows: 64, chainFlowsBig: 2048, chainWarmPkts: 4096,
		moveChunks: 1500, warmMoves: 1,
		scaleFlows: 1024, scaleRate: 5000, warmCycles: 1,
		setupReps: 1, probeFor: 30 * time.Millisecond, probePkts: 1 << 16,
	},
}

// env is one workload run: its inputs, its recorder and what it has
// measured so far.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	sz       sizes
	outDir   string
	rec      *recorder // nil unless trace

	// attempted and failed count packets plus operations; scaleup-live's
	// generator adds to them beside the client.
	attempted, failed atomic.Int64
	incorrect         []string // failed correctness checks
	metrics           map[string]float64
	samples           int
}

// rng returns a generator for the named input stream; the same seed gives
// the same inputs however often set-up repeats.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + stream))
}

// set records a metric; a name the spec does not list is a bug in the
// tables and makes the run incorrect instead of vanishing from the output.
func (e *env) set(name string, v float64) {
	if !specNames[name] {
		e.check(false, "metric %q is not in the spec", name)
	}
	e.metrics[name] = v
}

// tracing reports whether spans are being recorded right now.
func (e *env) tracing() bool { return e.rec.enabled() }

// fail counts n failed packets or operations with the reason.
func (e *env) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	e.failed.Add(n)
	e.incorrect = append(e.incorrect, fmt.Sprintf(format, args...))
}

// check records a correctness check; a false one makes the run incorrect.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.incorrect = append(e.incorrect, fmt.Sprintf(format, args...))
	}
}

// op is one completed operation of a timed phase: a burst through the chain,
// a move, a scale-up/scale-down cycle.
type op struct {
	ms   float64 // latency the caller saw
	busy float64 // seconds the system spent on it, settling included
	work float64 // packets or chunks it completed
}

// windows is how many consecutive parts a timed phase is cut into. Each part
// gives one rate, one median and one 90th-percentile latency, and the phase
// reports the median over its parts. The program's throughput and latency
// wander between regimes that last a second or more on this two-core box
// (which goroutines share a processor, where the collector is in its cycle);
// a single long average follows whichever regime the run happened to spend
// longest in, the median of many short parts does not.
const windows = 8

// phase is what one timed part of a workload measured.
type phase struct {
	rates      []float64            // per window: work per second, M/s
	p50s, p90s []float64            // per window: operation latency, ms
	ms         []float64            // every operation's latency, ms
	work       float64              // packets or chunks completed
	use        usage                // process resource delta across the phase
	extra      map[string][]float64 // named secondary samples (settle_ms, up_ms, ...)
}

// addLatency records one window's operation latencies.
func (p *phase) addLatency(ops []op) {
	v := make([]float64, len(ops))
	for i, o := range ops {
		v[i] = o.ms
	}
	p.ms = append(p.ms, v...)
	if len(v) > 0 {
		p.p50s = append(p.p50s, quantile(v, 0.5))
		p.p90s = append(p.p90s, quantile(v, 0.9))
	}
}

// addOps cuts one-at-a-time operations into windows of equal count; a
// window's rate is its work over the time the system was busy with it.
func (p *phase) addOps(ops []op) {
	n := windows
	if len(ops) < 4*n {
		n = len(ops) / 4
	}
	if n < 1 {
		n = 1
	}
	for g := 0; g < n; g++ {
		part := ops[g*len(ops)/n : (g+1)*len(ops)/n]
		var w, busy float64
		for _, o := range part {
			w += o.work
			busy += o.busy
		}
		p.work += w
		if busy > 0 {
			p.rates = append(p.rates, w/busy/1e6)
		}
		p.addLatency(part)
	}
}

// rig is a built workload: the program under test wired up, preloaded and
// warmed, ready for timed phases.
type rig interface {
	// run drives the workload for d and returns what it measured. Spans are
	// recorded through e.rec, which is a no-op unless tracing is enabled.
	run(e *env, d time.Duration) phase
	// layer reports the per-layer metrics read from the program's own
	// counters after the traced phase.
	layer(e *env, p phase)
	// verify runs the end-of-run correctness checks.
	verify(e *env)
	close()
}

// runWorkload is the shape every workload shares: set up (several times, for
// a steady setup_s), measure, check, tear down. Untraced runs emit the
// end-to-end metrics; traced runs measure a reference half with spans off
// and a traced half with spans on, then the isolation probes.
func runWorkload(e *env, build func(*env) (rig, error), probes func(*env)) {
	sinceStart := time.Since(procStart).Seconds()
	var r rig
	var setups []float64
	for i := 0; i < e.sz.setupReps; i++ {
		t0 := time.Now()
		built, err := build(e)
		if err != nil {
			e.fail(1, "set-up: %v", err)
			e.attempted.Add(1)
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < e.sz.setupReps-1 {
			built.close()
		} else {
			r = built
		}
	}
	defer r.close()
	e.set("setup_s", sinceStart+median(setups))

	d := time.Duration(e.seconds * float64(time.Second))
	if !e.trace {
		p := r.run(e, d)
		e.samples = len(p.ms)
		fmt.Printf("info window rates %.4g\ninfo window p50s %.4g\n", p.rates, p.p50s)
		e.set("throughput_mps", median(p.rates))
		e.set("op_ms_p50", median(p.p50s))
		r.verify(e)
		e.set("peak_rss_mb", peakRSSMB())
		return
	}
	ref := r.run(e, d/2)
	e.rec.enable(true)
	tr := r.run(e, d/2)
	e.rec.enable(false)
	e.samples = len(tr.ms)
	e.set("samples", float64(len(tr.ms)))
	e.set("op_ms_p90", median(tr.p90s))
	pct := func(traced, untraced float64) float64 {
		if untraced == 0 {
			return 0
		}
		return 100 * (traced - untraced) / untraced
	}
	// Signed so that positive means tracing made the metric worse.
	e.set("trace.overhead_throughput_pct", -pct(median(tr.rates), median(ref.rates)))
	e.set("trace.overhead_op_p50_pct", pct(median(tr.p50s), median(ref.p50s)))
	r.layer(e, tr)
	r.verify(e)
	e.rec.enable(true)
	probes(e)
	e.rec.enable(false)
	if n := e.attempted.Load(); n > 0 {
		e.set("fail_share", float64(e.failed.Load())/float64(n))
	}
	if err := e.rec.write(filepath.Join(e.outDir, "trace-"+e.workload+".json")); err != nil {
		e.check(false, "write spans: %v", err)
	}
}

// printMetrics writes every measured metric by name with its unit, in spec
// order, and returns the metrics object of the result line.
func (e *env) printMetrics() map[string]metricValue {
	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v := e.metrics[m.Name]
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-32s %16.6f %s\n", m.Name, v, m.Unit)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
