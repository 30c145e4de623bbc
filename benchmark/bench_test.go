package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/state"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json and the
// tables in spec.go the same thing.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("BENCHMARK.json differs from `-spec` output; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
}

// TestSpecWithinContract checks the limits a BENCHMARK.json is refused for.
func TestSpecWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(benchmarkJSON()))
	}
}

// buildBinary compiles the benchmark once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "openmb-benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, at smoke
// scale in a child process whose parent environment selects the per-packet
// ablation: the child must still run the pinned configuration, pass every
// correctness check, and emit exactly the metrics BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildBinary(t)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "7", "--seconds", "0.6",
					"--trace", traced, "--scale", "smoke", "--out", out)
				cmd.Env = append(os.Environ(), "OPENMB_BURST=off", "OPENMB_CODEC=json")
				start := time.Now()
				stdout, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("%v\n%s", err, stdout)
				}
				if took := time.Since(start); took > 10*time.Second {
					t.Errorf("smoke run took %v", took)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res childResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout)
				}
				var m meta
				for _, l := range lines {
					if rest, ok := strings.CutPrefix(l, "meta "); ok {
						if err := json.Unmarshal([]byte(rest), &m); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !reflect.DeepEqual(m.Env, []string{"OPENMB_ZEROCOPY=1"}) {
					t.Errorf("child saw OPENMB_* variables %v; the pinned environment is exactly OPENMB_ZEROCOPY=1", m.Env)
				}
				if m.Pinned != pinnedText || m.GoVersion == "" || m.GOMAXPROCS < 1 || m.Seed != 7 || m.Scale != "smoke" {
					t.Errorf("meta incomplete: %+v", m)
				}

				specs := endToEnd
				if traced == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, spec lists %d", len(res.Metrics), len(specs))
				}
				val := map[string]float64{}
				for _, s := range specs {
					mv, ok := res.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s missing", s.Name)
						continue
					}
					if mv.Unit != s.Unit {
						t.Errorf("metric %s: unit %q, spec says %q", s.Name, mv.Unit, s.Unit)
					}
					if traced == "0" && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", s.Name, mv.Value)
					}
					val[s.Name] = mv.Value
				}
				if traced == "0" {
					return
				}
				if val["fail_share"] != 0 || val["mbox.ring_drops"] != 0 || val["netsim.dropped"] != 0 {
					t.Errorf("fail_share=%v ring_drops=%v netsim.dropped=%v, want 0", val["fail_share"], val["mbox.ring_drops"], val["netsim.dropped"])
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
				positive := func(names ...string) {
					t.Helper()
					for _, n := range names {
						if val[n] <= 0 {
							t.Errorf("%s = %v on %s, want > 0", n, val[n], w.Name)
						}
					}
				}
				switch w.Name {
				case "chain-sat", "chain-flows16k":
					// The NF rows are differences of two short probes and can
					// dip below zero at smoke size; only their base cannot.
					positive("mbox.runtime_ns_per_pkt", "chain.cpu_ns_per_pkt", "packet.clone_release_ns")
					if val["nat.ns_per_pkt"] == 0 {
						t.Errorf("nat.ns_per_pkt missing on %s", w.Name)
					}
				case "chain-ping":
					positive("mbox.wakeup_us_p50", "mbox.pkt_sojourn_p50_us", "mbox.pkt_sojourn_p90_us")
				case "move-idle":
					positive("core.chunks_moved", "core.move_window_ms_mean", "mbox.export_ns_per_chunk", "sbi.encode_ns_per_chunk")
					if val["core.pull_ms_p50"] != 0 || val["mbox.events_raised"] != 0 {
						t.Errorf("move-idle: pull_ms_p50=%v events_raised=%v, want 0", val["core.pull_ms_p50"], val["mbox.events_raised"])
					}
					if chunks, n := val["core.chunks_moved"], val["samples"]*float64(scales["smoke"].moveChunks); chunks != n {
						t.Errorf("core.chunks_moved = %v, want exactly %v", chunks, n)
					}
				case "move-xnode":
					positive("core.pull_ms_p50", "core.dir_commits", "sbi.tcp_rtt_us_p50", "core.chunks_moved")
				case "scaleup-live":
					positive("netsim.delivered", "netsim.switch_ns_per_pkt", "state.index_lookup_us", "gen.achieved_kpps",
						"apps.scaleup_ms_p50", "apps.scaledown_ms_p50", "core.clone_config_us", "sdn.route_update_us")
				}
			})
		}
	}
}

func smokeEnv(workload string) *env {
	return &env{workload: workload, seed: 7, seconds: 0.2, scale: "smoke", sz: scales["smoke"], metrics: map[string]float64{}}
}

// TestChecksFire breaks each invariant on purpose and expects the check
// guarding it to report the run incorrect.
func TestChecksFire(t *testing.T) {
	t.Run("move conservation", func(t *testing.T) {
		e := smokeEnv("move-idle")
		r, err := buildMoveIdle(e)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		mr := r.(*moveRig)
		if _, _, ok := mr.moveOnce(e); !ok || len(e.incorrect) != 0 {
			t.Fatalf("clean move failed: %v", e.incorrect)
		}
		// One count appears from nowhere at the holder: the next move
		// must notice that the sum no longer matches the seeded total.
		if err := mr.logics[mr.at].PutPerflow(state.Supporting, state.Chunk{Key: mbtest.FlowN(0), Blob: []byte{0, 0, 0, 0, 0, 0, 0, 1}}); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := mr.moveOnce(e); ok || e.failed.Load() == 0 {
			t.Fatal("a move that changed the summed counts passed the conservation check")
		}
	})
	t.Run("exact chunk count", func(t *testing.T) {
		e := smokeEnv("move-idle")
		r, err := buildMoveIdle(e)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		mr := r.(*moveRig)
		mr.chunks++ // the rig now expects one chunk more per move than exists
		mr.run(e, 50*time.Millisecond)
		if len(e.incorrect) == 0 {
			t.Fatal("core.chunks_moved off by one per move went unnoticed")
		}
	})
	t.Run("chain loss and drops", func(t *testing.T) {
		e := smokeEnv("chain-sat")
		r, err := buildChain(e.sz.chainFlows, false)(e)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		cr := r.(*chainRig)
		cr.verify(e)
		if len(e.incorrect) != 0 {
			t.Fatalf("clean chain failed verification: %v", e.incorrect)
		}
		// A burst into a closed runtime is shed at its ring, exactly as an
		// overflowing ring sheds: delivered != injected and drops != 0.
		cr.rts[0].Close()
		burst := make([]*packet.Packet, chainBurst)
		cr.fill(burst)
		cr.rts[0].HandleBurst(burst)
		cr.sent += uint64(len(burst))
		cr.verify(e)
		if e.failed.Load() == 0 || len(e.incorrect) < 2 {
			t.Fatalf("lost burst not reported: failed=%d %v", e.failed.Load(), e.incorrect)
		}
	})
	t.Run("scaleup conservation", func(t *testing.T) {
		e := smokeEnv("scaleup-live")
		r, err := buildScaleup(e)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		sr := r.(*scaleRig)
		sr.conserved(e)
		if len(e.incorrect) != 0 {
			t.Fatalf("clean bed failed conservation: %v", e.incorrect)
		}
		sr.injected.Add(1) // a packet the monitors never counted
		sr.conserved(e)
		if e.failed.Load() != 1 {
			t.Fatalf("one uncounted packet: failed=%d %v", e.failed.Load(), e.incorrect)
		}
	})
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare two hand-made result sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, benchmarkJSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 func(i int) float64) string {
		var f resultFile
		for i := 0; i < 10; i++ {
			f.add(runRecord{Workload: "move-idle", Seed: int64(i), Result: childResult{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"op_ms_p50": {Value: p50(i), Unit: "ms"}}}})
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", func(i int) float64 { return 100 + float64(i)*0.2 })
	same := write("b.json", func(i int) float64 { return 100.5 + float64(i)*0.2 })
	slow := write("c.json", func(i int) float64 { return 130 + float64(i)*0.2 })
	wide := write("d.json", func(i int) float64 { return 100 + float64(i)*9 })
	if got := compareFiles(base, same, spec); got != 0 {
		t.Errorf("same build: status %d, want 0", got)
	}
	if got := compareFiles(base, slow, spec); got != 1 {
		t.Errorf("30%% slower: status %d, want 1 (regressed)", got)
	}
	if got := compareFiles(base, wide, spec); got != 1 {
		t.Errorf("spread above the bound: status %d, want 1 (unresolved)", got)
	}
}
