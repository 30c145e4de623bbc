package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one child run as the suite keeps it.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    bool        `json:"trace"`
	WallS    float64     `json:"wall_s"`
	Samples  int         `json:"samples"`
	Meta     meta        `json:"meta"`
	Result   childResult `json:"result"`
}

// resultFile is what -compare reads: the runs plus the meta of the first.
type resultFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

func (f *resultFile) add(r runRecord) {
	if len(f.Runs) == 0 {
		f.Meta = r.Meta
	}
	f.Runs = append(f.Runs, r)
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runSuite runs every workload once (and once more traced, if asked), each
// in its own child process, prints every metric and writes result.json.
func runSuite(seed int64, seconds float64, traced bool, scale, out string) int {
	var file resultFile
	status := 0
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, w := range workloads {
		for _, t := range modes {
			rec, err := spawn(w.Name, seed, seconds, t, scale, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				status = 1
			}
			file.add(rec)
		}
	}
	path := filepath.Join(out, "result.json")
	if err := file.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	return status
}

// runAA produces two sets of n untraced runs per workload from this build,
// interleaved so drift hits both alike, on seeds seed..seed+n-1, and
// compares them: the acceptance check that the benchmark agrees with itself.
func runAA(n int, seed int64, seconds float64, scale, out, benchJSON string) int {
	var sets [2]resultFile
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for s := range sets {
				rec, err := spawn(w.Name, seed+int64(i), seconds, false, scale, out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				sets[s].add(rec)
			}
		}
	}
	paths := [2]string{filepath.Join(out, "aa-A.json"), filepath.Join(out, "aa-B.json")}
	for s := range sets {
		if err := sets[s].write(paths[s]); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return compareFiles(paths[0], paths[1], benchJSON)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the spreads
// printed here are the ones the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict against the bound BENCHMARK.json
// stores. It returns 1 when anything regressed or stayed unresolved.
func compareFiles(pathA, pathB, benchJSON string) int {
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	b, err := os.ReadFile(benchJSON)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: bounds: %v\n", err)
		return 2
	}
	load := func(path string) (map[string]map[string][]float64, meta, error) {
		var f resultFile
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &f)
		}
		vals := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Trace {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Result.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], mv.Value)
			}
		}
		return vals, f.Meta, err
	}
	a, metaA, err := load(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	bv, metaB, err := load(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("A: %s commit=%s go=%s procs=%d cpu=%q scale=%s seconds=%g\n", pathA, metaA.Commit, metaA.GoVersion, metaA.GOMAXPROCS, metaA.CPU, metaA.Scale, metaA.Seconds)
	fmt.Printf("B: %s commit=%s go=%s procs=%d cpu=%q scale=%s seconds=%g\n", pathB, metaB.Commit, metaB.GoVersion, metaB.GOMAXPROCS, metaB.CPU, metaB.Scale, metaB.Seconds)
	fmt.Printf("%-15s %-15s %4s  %12s %8s  %12s %8s  %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A iqr%", "B median", "B iqr%", "B-A %", "bound%", "verdict")
	status := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], bv[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2 // positive = B worse, for "lower is better"
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "unresolved (spread exceeds the bound)"
				status = 1
			case worse > m.Bound:
				verdict = "regressed"
				status = 1
			case -worse > spreadA && -worse > spreadB:
				verdict = "improved"
			}
			if verdict == "same" && (spreadA > m.Bound/3 || spreadB > m.Bound/3) && m.Name != "setup_s" {
				verdict = "same (spread above a third of the bound)"
			}
			fmt.Printf("%-15s %-15s %4d  %12.5g %8.2f  %12.5g %8.2f  %+8.2f %6.0f  %s\n",
				w.Name, m.Name, len(va), a2, 100*spreadA, b2, 100*spreadB, 100*(b2-a2)/a2, 100*m.Bound, verdict)
		}
	}
	return status
}
