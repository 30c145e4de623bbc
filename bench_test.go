package openmb

// One benchmark per table and figure of the paper's evaluation (§8), plus
// the ablations DESIGN.md calls out. Each iteration runs the corresponding
// experiment at reduced scale; cmd/openmb-bench -scale full prints the
// full-sweep tables. Custom metrics surface the quantities the paper
// reports (events, bytes, chunk counts) alongside ns/op.

import (
	"fmt"
	"testing"
	"time"

	"openmb/internal/eval"
)

func runExp(b *testing.B, run func() (*eval.Table, error)) *eval.Table {
	b.Helper()
	var last *eval.Table
	for i := 0; i < b.N; i++ {
		tbl, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	return last
}

// BenchmarkFigure7ScaleUpTimeline regenerates Figure 7: MB actions during
// the scale-up scenario.
func BenchmarkFigure7ScaleUpTimeline(b *testing.B) {
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure7ScaleUpTimeline(eval.Figure7Config{
			Duration: 500 * time.Millisecond, MoveAt: 150 * time.Millisecond,
			Bucket: 50 * time.Millisecond,
		})
	})
}

// BenchmarkFigure8FlowDurationCDF regenerates Figure 8: the flow-duration
// CDF with its ~9% >1500 s tail.
func BenchmarkFigure8FlowDurationCDF(b *testing.B) {
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure8FlowDurationCDF(eval.Figure8Config{Flows: 3000})
	})
}

// BenchmarkTable2Applicability regenerates Table 2: the approach
// applicability matrix with measured evidence.
func BenchmarkTable2Applicability(b *testing.B) {
	runExp(b, func() (*eval.Table, error) { return eval.Table2Applicability() })
}

// BenchmarkTable3REMigration regenerates Table 3: RE correctness and
// performance under live migration, SDMBN vs config+routing.
func BenchmarkTable3REMigration(b *testing.B) {
	tbl := runExp(b, func() (*eval.Table, error) {
		return eval.Table3REMigration(eval.Table3Config{})
	})
	_ = tbl
}

// BenchmarkFigure9aGetPerflow and ...9bPutPerflow regenerate Figures
// 9(a)/9(b): get and put times versus chunk count for both middleboxes.
func BenchmarkFigure9aGetPerflow(b *testing.B) {
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure9GetPut(eval.Figure9Config{ChunkCounts: []int{250, 500}})
	})
}

// BenchmarkFigure9bPutPerflow shares the harness with 9(a); the table's put
// column is the 9(b) series.
func BenchmarkFigure9bPutPerflow(b *testing.B) {
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure9GetPut(eval.Figure9Config{ChunkCounts: []int{1000}})
	})
}

// reportWireStats attaches the accumulated frames-per-flush ratio of the
// experiment's southbound connections as a custom metric, so the coalesced
// wire path's effectiveness lands in bench output next to ns/op.
func reportWireStats(b *testing.B) {
	b.Helper()
	if frames, flushes := eval.TakeWireStats(); flushes > 0 {
		b.ReportMetric(float64(frames)/float64(flushes), "frames/flush")
	}
}

// BenchmarkFigure9cEventsMonitor regenerates Figure 9(c): events generated
// by the PRADS-like monitor during a move, versus packet rate.
func BenchmarkFigure9cEventsMonitor(b *testing.B) {
	eval.TakeWireStats()
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure9Events(eval.Figure9EventsConfig{
			ChunkCounts: []int{250}, Rates: []int{1000, 2500}, Window: 100 * time.Millisecond,
		}, false)
	})
	reportWireStats(b)
}

// BenchmarkFigure9dEventsIPS regenerates Figure 9(d) for the Bro-like IPS.
func BenchmarkFigure9dEventsIPS(b *testing.B) {
	eval.TakeWireStats()
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure9Events(eval.Figure9EventsConfig{
			ChunkCounts: []int{250}, Rates: []int{1000, 2500}, Window: 100 * time.Millisecond,
		}, true)
	})
	reportWireStats(b)
}

// BenchmarkFigure10aSingleMove regenerates Figure 10(a): controller time
// per move versus chunks, with and without events.
func BenchmarkFigure10aSingleMove(b *testing.B) {
	runExp(b, func() (*eval.Table, error) {
		return eval.Figure10aSingleMove(eval.Figure10aConfig{ChunkCounts: []int{1000, 5000}})
	})
}

// BenchmarkFigure10bConcurrentMoves regenerates Figure 10(b): average move
// time versus simultaneous operations, one sub-benchmark per pair count.
func BenchmarkFigure10bConcurrentMoves(b *testing.B) {
	for _, pairs := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			runExp(b, func() (*eval.Table, error) {
				return eval.Figure10bConcurrentMoves(eval.Figure10bConfig{
					Concurrency: []int{pairs}, ChunkCounts: []int{1000},
				})
			})
		})
	}
}

// BenchmarkClusterRebalanceUnderLoad is the Figure 10(b)-style sweep on the
// controller cluster: 4 simultaneous moves with live mid-move handoffs at
// replicas=3, against the replicas=1 single-controller ablation. Each run
// asserts loss-freedom (no chunk lost or duplicated across the handoffs).
func BenchmarkClusterRebalanceUnderLoad(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			runExp(b, func() (*eval.Table, error) {
				return eval.RebalanceUnderLoad(eval.RebalanceConfig{
					Pairs: 4, Chunks: 1000, Replicas: []int{replicas}, Handoffs: 4,
				})
			})
		})
	}
}

// BenchmarkFlashCrowdElastic runs the Stratos-style flash-crowd scenario: a
// heavy-tailed workload ramps ~7x while the elasticity loop clones the NF
// out to meet the peak and merges back down in the cool phase, with the
// loss-freedom and per-flow conservation audits on every iteration. Custom
// metrics count the loop's actions and the ring sheds across both rows —
// the loop-on row asserts zero sheds internally, so every shed counted here
// comes from the unmanaged ablation row, where shedding is the point.
func BenchmarkFlashCrowdElastic(b *testing.B) {
	eval.TakeElasticStats()
	runExp(b, func() (*eval.Table, error) { return eval.FlashCrowd(eval.FlashCrowdConfig{}) })
	scaleOuts, scaleIns, drops := eval.TakeElasticStats()
	b.ReportMetric(float64(scaleOuts)/float64(b.N), "scaleouts/op")
	b.ReportMetric(float64(scaleIns)/float64(b.N), "scaleins/op")
	b.ReportMetric(float64(drops)/float64(b.N), "ringdrops/op")
}

// BenchmarkSnapshotComparison regenerates the §8.1.2 snapshot experiment.
func BenchmarkSnapshotComparison(b *testing.B) {
	runExp(b, func() (*eval.Table, error) { return eval.SnapshotComparison(50, 60) })
}

// BenchmarkSplitMergeBuffering regenerates the §8.1.2 Split/Merge
// buffering experiment.
func BenchmarkSplitMergeBuffering(b *testing.B) {
	runExp(b, func() (*eval.Table, error) { return eval.SplitMergeBuffering(500, 1000) })
}

// BenchmarkCorrectnessDiff regenerates the §8.2 correctness comparison.
func BenchmarkCorrectnessDiff(b *testing.B) {
	tbl := runExp(b, func() (*eval.Table, error) { return eval.CorrectnessDiff(51, 40) })
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			b.Fatalf("correctness mismatch: %v", row)
		}
	}
}

// BenchmarkLatencyDuringGet regenerates the §8.2 per-packet latency
// comparison (normal vs during get).
func BenchmarkLatencyDuringGet(b *testing.B) {
	runExp(b, func() (*eval.Table, error) { return eval.LatencyDuringGet(300, 2000) })
}

// BenchmarkCompressionAblation regenerates the §8.3 compression experiment.
func BenchmarkCompressionAblation(b *testing.B) {
	runExp(b, func() (*eval.Table, error) { return eval.CompressionAblation(200) })
}
