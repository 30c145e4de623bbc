package eval

import "time"

// Entry is one artefact of the paper's evaluation (§8).
type Entry struct {
	// ID keys the artefact everywhere it appears: the -exp value of
	// cmd/openmb-bench, the ID of the Table that Run returns, and the row
	// of docs/REPRODUCTION.md.
	ID string
	// Artefact names the paper's figure, table or section.
	Artefact string
	// Run regenerates the artefact. full selects parameters close to the
	// paper's sweeps; otherwise the quick scale the package's shape tests
	// assert on, which finishes in seconds.
	Run func(full bool) (*Table, error)
}

// Ledger lists every artefact of §8, in the paper's order. It is the only
// list of experiments and the only place their parameters are written down.
var Ledger = []Entry{
	{"f7", "Figure 7: MB actions during scale-up", func(full bool) (*Table, error) {
		if full {
			return figure7ScaleUpTimeline(1200*time.Millisecond, 400*time.Millisecond, 100*time.Millisecond)
		}
		return figure7ScaleUpTimeline(500*time.Millisecond, 150*time.Millisecond, 50*time.Millisecond)
	}},
	{"f8", "Figure 8: CDF of flow completion times", func(full bool) (*Table, error) {
		return figure8FlowDurationCDF(pick(full, 10000, 3000))
	}},
	{"t2", "Table 2: applicability of MB control approaches", func(bool) (*Table, error) {
		return table2Applicability()
	}},
	{"t3", "Table 3: RE in live migration", func(full bool) (*Table, error) {
		return table3REMigration(pick(full, 32, 16))
	}},
	{"f9ab", "Figure 9(a,b): getPerflow / putPerflow time vs chunks", func(full bool) (*Table, error) {
		return figure9GetPut(pick(full, []int{250, 500, 1000}, []int{100, 400}))
	}},
	{"f9c", "Figure 9(c): events during a PRADS move vs packet rate", func(full bool) (*Table, error) {
		return figure9EventsSweep("f9c", false, full)
	}},
	{"f9d", "Figure 9(d): events during a Bro move vs packet rate", func(full bool) (*Table, error) {
		return figure9EventsSweep("f9d", true, full)
	}},
	{"f10a", "Figure 10(a): time per moveInternal vs chunks", func(full bool) (*Table, error) {
		return figure10aSingleMove(pick(full, []int{1000, 5000, 10000, 15000, 20000, 25000}, []int{300, 1200}))
	}},
	{"f10b", "Figure 10(b): time per moveInternal vs simultaneous moves", func(full bool) (*Table, error) {
		return figure10bConcurrentMoves(
			pick(full, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 4}),
			pick(full, []int{1000, 2000, 3000}, []int{400}))
	}},
	{"snap", "§8.1.2: VM snapshot comparison", func(full bool) (*Table, error) {
		return snapshotComparison(pick(full, 150, 40))
	}},
	{"sm", "§8.1.2: Split/Merge halt-based migration", func(full bool) (*Table, error) {
		// Full is the paper's point: 1000 chunks at 1000 pkt/s.
		return splitMergeBuffering(pick(full, 1000, 400), pick(full, 1000, 2000))
	}},
	{"corr", "§8.2: correctness, unmodified vs OpenMB-enabled output", func(full bool) (*Table, error) {
		return correctnessDiff(pick(full, 80, 30))
	}},
	{"perf", "§8.2: per-packet latency, normal vs during get", func(full bool) (*Table, error) {
		return latencyDuringGet(pick(full, 1000, 200), pick(full, 10000, 1000))
	}},
	{"comp", "§8.3: state-transfer compression", func(full bool) (*Table, error) {
		return compressionAblation(pick(full, 500, 150))
	}},
}

// figure9EventsSweep runs Figure 9(c) or, deep, 9(d): the two panels share
// one sweep of chunk counts, packet rates and post-get window.
func figure9EventsSweep(id string, deep, full bool) (*Table, error) {
	if full {
		return figure9Events(id, deep, []int{250, 500, 1000}, []int{500, 1000, 1500, 2000, 2500}, 150*time.Millisecond)
	}
	return figure9Events(id, deep, []int{100}, []int{400, 2000}, 100*time.Millisecond)
}

func pick[T any](full bool, f, q T) T {
	if full {
		return f
	}
	return q
}
