// Command benchmark is the OpenMB benchmark: a packet through the NF chain
// and a move, end to end and layer by layer, on six workloads. It measures
// the tree it sits in from outside, through exported functions only.
//
//	bash benchmark/run.sh --workload chain-sat --seed 1 --seconds 16 --trace 0   one workload (driver mode)
//	bash benchmark/run.sh                   every workload, end-to-end metrics
//	bash benchmark/run.sh -trace            ... and the traced per-layer run of each
//	bash benchmark/run.sh -aa 10            two sets of 10 runs of this build, compared
//	bash benchmark/run.sh -compare A.json B.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result line (driver mode)")
		seed     = flag.Int64("seed", 1, "workload seed: permutes flow addresses and ports, visit order and chunk contents")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed part of each run")
		trace    = flag.String("trace", "0", "0: end-to-end metrics with tracing off; 1 (or bare -trace): also the traced per-layer run")
		scale    = flag.String("scale", "full", "workload sizes: full or smoke")
		out      = flag.String("out", "", "directory for result, span and A/A files (default <benchmark dir>/out)")
		aa       = flag.Int("aa", 0, "run two sets of N runs per workload from this build and compare them")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
		spec     = flag.Bool("spec", false, "print the BENCHMARK.json these tables define and exit")
	)
	// A bare -trace (the documented suite form) must not swallow the next
	// argument, which a string flag would.
	args := os.Args[1:]
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			args[i] = "-trace=1"
		}
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	traced := *trace == "1" || *trace == "true"
	if !traced && *trace != "0" && *trace != "false" {
		fatalf("-trace: want 0 or 1, got %q", *trace)
	}
	sz, ok := scales[*scale]
	if !ok {
		fatalf("-scale: want full or smoke, got %q", *scale)
	}
	benchDir, err := findBenchDir()
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "" {
		*out = filepath.Join(benchDir, "out")
	}

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare wants two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), filepath.Join(benchDir, "..", "BENCHMARK.json")))
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fatalf("unknown workload %q", *workload)
		}
		sanitizeEnv()
		e := &env{
			workload: w.Name, seed: *seed, seconds: *seconds, trace: traced,
			scale: *scale, sz: sz, outDir: *out, metrics: map[string]float64{},
		}
		if traced {
			e.rec = newRecorder()
		}
		os.Exit(runChild(e, w))
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *scale, *out, filepath.Join(benchDir, "..", "BENCHMARK.json")))
	default:
		os.Exit(runSuite(*seed, *seconds, traced, *scale, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// findBenchDir locates the benchmark's own directory from the working
// directory: the repository root (run.sh, the driver) or the directory
// itself (go run .).
func findBenchDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(dir, "spec.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "run.sh")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/")
}

// pinnedEnv returns the environment every workload process runs in: the
// caller's, minus every OPENMB_* variable, plus OPENMB_ZEROCOPY=1. Several
// packages under test pick an implementation from those variables in init();
// pooled zero-copy links are still opt-in there, and selecting them through
// the variable (not through netsim.Options) keeps this program compiling
// when the copying twin and its option are deleted. changed reports whether
// the caller's environment differed.
func pinnedEnv() (env []string, changed bool) {
	const zc = "OPENMB_ZEROCOPY=1"
	seen := false
	for _, kv := range os.Environ() {
		switch {
		case kv == zc:
			seen = true
		case strings.HasPrefix(kv, "OPENMB_"):
			changed = true
		default:
			env = append(env, kv)
		}
	}
	return append(env, zc), changed || !seen
}

// sanitizeEnv re-executes the process under pinnedEnv. The init() functions
// have already run by now, so editing this process's environment would be
// too late.
func sanitizeEnv() {
	env, changed := pinnedEnv()
	if !changed {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("re-exec with the pinned environment: %v", err)
	}
	if err := syscall.Exec(exe, os.Args, env); err != nil {
		fatalf("re-exec with the pinned environment: %v", err)
	}
}

// openmbEnv lists the OPENMB_* variables this process sees, for meta.
func openmbEnv() []string {
	out := []string{}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "OPENMB_") {
			out = append(out, kv)
		}
	}
	return out
}

// meta makes two result files comparable without reading the log.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Pinned     string  `json:"pinned"`
	// Env is every OPENMB_* variable the workload process saw: exactly
	// OPENMB_ZEROCOPY=1 whatever the caller had set.
	Env []string `json:"openmb_env"`
}

// childResult is the contract's result line.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in this process and prints, last, the result
// line. It exits non-zero when a correctness check failed.
func runChild(e *env, w *workloadSpec) int {
	m := meta{
		Commit: commitID(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: cpuModel(), Seed: e.seed, Scale: e.scale, Seconds: e.seconds,
		Pinned: pinnedText, Env: openmbEnv(),
	}
	mb, _ := json.Marshal(m)
	fmt.Printf("meta %s\n", mb)
	if len(m.Env) != 1 || m.Env[0] != "OPENMB_ZEROCOPY=1" {
		e.check(false, "pinned environment not in effect: %v", m.Env)
	}
	fmt.Printf("workload %s trace=%v seed=%d seconds=%g scale=%s\n", w.Name, e.trace, e.seed, e.seconds, e.scale)
	start := time.Now()
	w.run(e)
	metrics := e.printMetrics()
	attempted, failed := e.attempted.Load(), e.failed.Load()
	if attempted < 1 {
		attempted = 1
	}
	fmt.Printf("info wall_s %.3f samples %d fail_share %.6g\n", time.Since(start).Seconds(), e.samples, float64(failed)/float64(attempted))
	for _, msg := range e.incorrect {
		fmt.Printf("FAILED %s\n", msg)
	}
	res := childResult{Correct: len(e.incorrect) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// commitID reads the checked-out commit without running git: the driver's
// checkout is not a repository, where this reports "unknown".
func commitID() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(s, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return s
	}
	return "unknown"
}

// spawn runs one workload in a fresh child process whose environment has no
// OPENMB_* variable, relays its output, and returns its parsed result.
func spawn(workload string, seed int64, seconds float64, traced bool, scale, out string) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t, "--scale", scale, "--out", out)
	cmd.Env, _ = pinnedEnv()
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	os.Stdout.Write(stdout)
	rec := runRecord{Workload: workload, Seed: seed, Trace: traced, WallS: time.Since(start).Seconds()}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "meta "); ok {
			_ = json.Unmarshal([]byte(rest), &rec.Meta)
		}
		if rest, ok := strings.CutPrefix(l, "info wall_s "); ok {
			var wall float64
			fmt.Sscanf(rest, "%g samples %d", &wall, &rec.Samples)
		}
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); jerr != nil {
		if err == nil {
			err = jerr
		}
		return rec, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if err != nil {
		return rec, fmt.Errorf("%s: %w", workload, err)
	}
	return rec, nil
}
