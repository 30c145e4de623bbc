package eval

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func mustRun(t *testing.T, run func() (*Table, error)) *Table {
	t.Helper()
	tbl, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", tbl.ID)
	}
	out := tbl.Render()
	if !strings.Contains(out, tbl.ID) {
		t.Fatalf("render missing id: %s", out)
	}
	t.Logf("\n%s", out)
	return tbl
}

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tbl.ID, row, col)
	}
	return tbl.Rows[row][col]
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not an int: %q", s)
	}
	return v
}

func TestFigure8Shape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return Figure8FlowDurationCDF(Figure8Config{Flows: 3000}) })
	// The note carries the tail fraction; check it lands near 9%.
	found := false
	for _, n := range tbl.Notes {
		if strings.HasPrefix(n, "P(duration > 1500 s)") {
			found = true
			var frac float64
			if _, err := fmtSscanf(n, &frac); err != nil {
				t.Fatalf("parse note %q: %v", n, err)
			}
			if frac < 0.05 || frac > 0.14 {
				t.Fatalf("tail fraction %v outside [0.05,0.14]", frac)
			}
		}
	}
	if !found {
		t.Fatal("tail note missing")
	}
}

func fmtSscanf(n string, frac *float64) (int, error) {
	idx := strings.Index(n, "= ")
	rest := n[idx+2:]
	end := strings.IndexByte(rest, ' ')
	v, err := strconv.ParseFloat(rest[:end], 64)
	*frac = v
	return 1, err
}

func TestTable2Classifications(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return Table2Applicability() })
	if cell(t, tbl, 0, 1) != "Y" || cell(t, tbl, 0, 2) != "Y" || cell(t, tbl, 0, 3) != "Y" {
		t.Fatal("SDMBN must be fully supported")
	}
	if cell(t, tbl, 1, 2) != "N" {
		t.Fatal("snapshot scale-down must be unsupported")
	}
}

func TestTable3Shape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return Table3REMigration(Table3Config{}) })
	sdmbnEnc := atoi(t, cell(t, tbl, 0, 1))
	sdmbnUndec := atoi(t, cell(t, tbl, 0, 2))
	cfgEnc := atoi(t, cell(t, tbl, 1, 1))
	cfgUndec := atoi(t, cell(t, tbl, 1, 2))
	if sdmbnUndec != 0 {
		t.Fatalf("SDMBN undecodable: %d", sdmbnUndec)
	}
	if cfgUndec == 0 {
		t.Fatal("config+routing should have undecodable bytes")
	}
	if sdmbnEnc <= cfgEnc {
		t.Fatalf("SDMBN should encode more than config+routing: %d vs %d", sdmbnEnc, cfgEnc)
	}
}

func TestFigure9Shape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return Figure9GetPut(Figure9Config{ChunkCounts: []int{100, 400}}) })
	// 4 rows: prads x2, bro x2. Get must grow with chunks for each MB.
	getAt := func(row int) time.Duration {
		d, err := time.ParseDuration(cell(t, tbl, row, 2))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if getAt(1) <= getAt(0) {
		t.Fatalf("prads get not growing: %v vs %v", getAt(0), getAt(1))
	}
	if getAt(3) <= getAt(2) {
		t.Fatalf("bro get not growing: %v vs %v", getAt(2), getAt(3))
	}
}

func TestFigure9EventsGrowWithRate(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) {
		return Figure9Events(Figure9EventsConfig{
			ChunkCounts: []int{100}, Rates: []int{400, 2000}, Window: 100 * time.Millisecond,
		}, false)
	})
	low := atoi(t, cell(t, tbl, 0, 2))
	high := atoi(t, cell(t, tbl, 1, 2))
	if high <= low {
		t.Fatalf("events should grow with rate: %d (400pps) vs %d (2000pps)", low, high)
	}
}

func TestFigure10aShape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return Figure10aSingleMove(Figure10aConfig{ChunkCounts: []int{300, 1200}}) })
	at := func(row, col int) time.Duration {
		d, err := time.ParseDuration(cell(t, tbl, row, col))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if at(1, 1) <= at(0, 1) {
		t.Fatalf("move time not growing with chunks: %v vs %v", at(0, 1), at(1, 1))
	}
}

func TestFigure10bRuns(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) {
		return Figure10bConcurrentMoves(Figure10bConfig{Concurrency: []int{1, 4}, ChunkCounts: []int{400}})
	})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRebalanceUnderLoadRuns(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) {
		return RebalanceUnderLoad(RebalanceConfig{Pairs: 2, Chunks: 300, Replicas: []int{1, 3}, Handoffs: 2})
	})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// The ablation row performs no handoffs; the replicated row must have
	// performed at least one (the scenario itself asserts loss-freedom).
	if got := cell(t, tbl, 0, 3); got != "0" {
		t.Fatalf("replicas=1 performed handoffs: %s", got)
	}
	if got := atoi(t, cell(t, tbl, 1, 3)); got < 1 {
		t.Fatalf("replicas=3 performed no handoffs")
	}
}

func TestRecoveryUnderFailureRuns(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) {
		return RecoveryUnderFailure(ChaosConfig{Pairs: 2, Chunks: 300})
	})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Clean rows report no recovery window; the chaos row must (the
	// scenario itself asserts loss-freedom and that every move returned).
	if got := cell(t, tbl, 0, 5); got != "-" {
		t.Fatalf("baseline reported a recovery time: %s", got)
	}
	if got := cell(t, tbl, 2, 5); got == "-" || got == "0s" {
		t.Fatalf("chaos row reported no recovery time: %s", got)
	}
	if got := cell(t, tbl, 2, 0); got != "on" {
		t.Fatalf("chaos row faults cell: %s", got)
	}
}

func TestSnapshotComparisonShape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return SnapshotComparison(60, 40) })
	full := atoi(t, cell(t, tbl, 1, 1))
	baseSz := atoi(t, cell(t, tbl, 0, 1))
	moved := atoi(t, cell(t, tbl, 5, 1))
	if full <= baseSz {
		t.Fatal("FULL image should exceed BASE")
	}
	if moved >= full-baseSz {
		t.Fatalf("SDMBN-moved bytes (%d) should be less than the full delta (%d)", moved, full-baseSz)
	}
	// Anomalous entries recorded in the notes.
	if !strings.Contains(strings.Join(tbl.Notes, " "), "incorrect") {
		t.Fatal("anomalous-entry note missing")
	}
}

func TestSplitMergeBufferingShape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return SplitMergeBuffering(400, 2000) })
	var buffered int
	for _, row := range tbl.Rows {
		if row[0] == "packets buffered" {
			buffered = atoi(t, row[1])
		}
	}
	if buffered == 0 {
		t.Fatal("no packets buffered during halt window")
	}
}

func TestCorrectnessDiffZero(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return CorrectnessDiff(61, 30) })
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("mismatches in %v", row)
		}
	}
}

func TestLatencyDuringGetBounded(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return LatencyDuringGet(200, 1000) })
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestCompressionAblationShape(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) { return CompressionAblation(150) })
	plain, _ := strconv.Atoi(cell(t, tbl, 0, 2))
	comp, _ := strconv.Atoi(cell(t, tbl, 1, 2))
	if comp >= plain {
		t.Fatalf("compression did not shrink transfers: %d vs %d", comp, plain)
	}
}

func TestFigure7Runs(t *testing.T) {
	tbl := mustRun(t, func() (*Table, error) {
		return Figure7ScaleUpTimeline(Figure7Config{
			Duration: 500 * time.Millisecond, MoveAt: 150 * time.Millisecond,
			Bucket: 50 * time.Millisecond, Rate: 2000,
		})
	})
	// The new instance must take over packets after the move.
	tookOver := false
	for _, row := range tbl.Rows {
		if atoi(t, row[2]) > 0 {
			tookOver = true
		}
	}
	if !tookOver {
		t.Fatal("new instance never processed packets")
	}
}

func TestFlashCrowdRuns(t *testing.T) {
	// Default (quick) scale, both rows. The experiment self-asserts the
	// hard contract — loop-on must be loss-free with exact per-flow
	// conservation and at least one scale-out AND scale-in; loop-off must
	// shed — so this test only re-checks the rendered shape.
	tbl := mustRun(t, func() (*Table, error) {
		return FlashCrowd(FlashCrowdConfig{})
	})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	if got := cell(t, tbl, 0, 0); got != "on" {
		t.Fatalf("row 0 loop cell: %s", got)
	}
	if atoi(t, cell(t, tbl, 0, 3)) < 1 || atoi(t, cell(t, tbl, 0, 4)) < 1 {
		t.Fatalf("loop-on row shows no scaling: %v", tbl.Rows[0])
	}
	if atoi(t, cell(t, tbl, 0, 5)) != 0 {
		t.Fatalf("loop-on row shed packets: %v", tbl.Rows[0])
	}
	if atoi(t, cell(t, tbl, 1, 2)) != 1 || atoi(t, cell(t, tbl, 1, 5)) == 0 {
		t.Fatalf("frozen ablation row did not shed on one member: %v", tbl.Rows[1])
	}
	if atoi(t, cell(t, tbl, 0, 2)) < 2 {
		t.Fatalf("loop-on fleet never grew: %v", tbl.Rows[0])
	}
}
