// Command openmb-bench regenerates every table and figure of the paper's
// evaluation (§8) and prints them as text tables. Run with -exp all (the
// default) or a comma-separated subset of experiment ids:
//
//	f7 f8 t2 t3 f9ab f9c f9d f10a f10b snap sm corr perf comp chaos chain obs elastic
//
// -scale full uses parameters close to the paper's sweeps; the default
// "quick" scale finishes in well under a minute. Every experiment runs on
// the library defaults (binary codec, 32 chunks per frame, automatic router
// sharding).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"openmb/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run (comma-separated ids, or 'all')")
	scale := flag.String("scale", "quick", "quick|full parameter scale")
	traceFlow := flag.String("trace-flow", "", "arm the filtered flow tracer on every chain hop with this FieldMatch (e.g. 'nw_dst=8.8.8.8,tp_dst=8080'); the armed-overhead ablation for the chain experiment")
	flows := flag.Int("flows", 0, "distinct flows the chain experiment round-robins over (0 = 256); per-packet cost must not grow with it")
	flag.Parse()

	full := *scale == "full"
	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return *exp == "all" || want[id] }

	type experiment struct {
		id  string
		run func() (*eval.Table, error)
	}
	experiments := []experiment{
		{"f7", func() (*eval.Table, error) {
			cfg := eval.Figure7Config{}
			if !full {
				cfg = eval.Figure7Config{Duration: 800 * time.Millisecond, MoveAt: 300 * time.Millisecond}
			}
			return eval.Figure7ScaleUpTimeline(cfg)
		}},
		{"f8", func() (*eval.Table, error) {
			return eval.Figure8FlowDurationCDF(eval.Figure8Config{Flows: pick(full, 10000, 3000)})
		}},
		{"t2", eval.Table2Applicability},
		{"t3", func() (*eval.Table, error) {
			return eval.Table3REMigration(eval.Table3Config{Flows: pick(full, 32, 16)})
		}},
		{"f9ab", func() (*eval.Table, error) {
			return eval.Figure9GetPut(eval.Figure9Config{ChunkCounts: pickSlice(full, []int{250, 500, 1000}, []int{100, 250, 500})})
		}},
		{"f9c", func() (*eval.Table, error) {
			return eval.Figure9Events(figure9EventsCfg(full), false)
		}},
		{"f9d", func() (*eval.Table, error) {
			return eval.Figure9Events(figure9EventsCfg(full), true)
		}},
		{"f10a", func() (*eval.Table, error) {
			return eval.Figure10aSingleMove(eval.Figure10aConfig{
				ChunkCounts: pickSlice(full, []int{1000, 5000, 10000, 15000, 20000, 25000}, []int{500, 1000, 2500, 5000}),
			})
		}},
		{"f10b", func() (*eval.Table, error) {
			return eval.Figure10bConcurrentMoves(eval.Figure10bConfig{
				Concurrency: pickSlice(full, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 2, 4, 8}),
				ChunkCounts: pickSlice(full, []int{1000, 2000, 3000}, []int{500, 1000}),
			})
		}},
		{"snap", func() (*eval.Table, error) { return eval.SnapshotComparison(50, pick(full, 150, 60)) }},
		{"sm", func() (*eval.Table, error) { return eval.SplitMergeBuffering(pick(full, 1000, 500), 1000) }},
		{"corr", func() (*eval.Table, error) { return eval.CorrectnessDiff(51, pick(full, 80, 40)) }},
		{"perf", func() (*eval.Table, error) {
			return eval.LatencyDuringGet(pick(full, 1000, 300), pick(full, 10000, 2000))
		}},
		{"comp", func() (*eval.Table, error) { return eval.CompressionAblation(pick(full, 500, 200)) }},
		{"chaos", func() (*eval.Table, error) {
			return eval.RecoveryUnderFailure(eval.ChaosConfig{
				Pairs:  pick(full, 4, 2),
				Chunks: pick(full, 2000, 600),
			})
		}},
		{"chain", func() (*eval.Table, error) {
			return eval.ChainThroughput(eval.ChainConfig{
				Packets:   pick(full, 1000000, 200000),
				Flows:     *flows,
				TraceFlow: *traceFlow,
			})
		}},
		{"obs", func() (*eval.Table, error) {
			return eval.ObsReport(eval.ObsConfig{
				Moves:  pick(full, 8, 4),
				Chunks: pick(full, 1000, 400),
			})
		}},
		{"elastic", func() (*eval.Table, error) {
			cfg := eval.FlashCrowdConfig{}
			if full {
				cfg = eval.FlashCrowdConfig{
					Flows:    128,
					Peak:     3 * time.Second,
					PeakRate: 2400,
					Cool:     2 * time.Second,
				}
			}
			return eval.FlashCrowd(cfg)
		}},
	}

	ran := 0
	for _, e := range experiments {
		if !selected(e.id) {
			continue
		}
		start := time.Now()
		tbl, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Println(tbl.Render())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q\n", *exp)
		os.Exit(2)
	}
}

func pick(full bool, f, q int) int {
	if full {
		return f
	}
	return q
}

func pickSlice(full bool, f, q []int) []int {
	if full {
		return f
	}
	return q
}

func figure9EventsCfg(full bool) eval.Figure9EventsConfig {
	if full {
		return eval.Figure9EventsConfig{}
	}
	return eval.Figure9EventsConfig{
		ChunkCounts: []int{100, 250},
		Rates:       []int{500, 1500, 2500},
		Window:      100 * time.Millisecond,
	}
}
