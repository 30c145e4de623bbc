package eval

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkEntry runs the ledger entry at quick scale, checks what every table
// must satisfy — rows, and the entry's own id as its ID — logs the rendered
// table, and applies the entry's shape assertion.
func checkEntry(t *testing.T, id string) {
	t.Helper()
	for _, e := range Ledger {
		if e.ID != id {
			continue
		}
		tbl, err := e.Run(false)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.ID != e.ID {
			t.Fatalf("ledger entry %s returned table %q", e.ID, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", tbl.ID)
		}
		t.Logf("%s\n%s", e.Artefact, tbl.Render())
		shapes[id](t, tbl)
		return
	}
	t.Fatalf("no ledger entry %q", id)
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

func duration(t *testing.T, tbl *Table, row, col int) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(cell(t, tbl, row, col))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// eventsGrowWithRate is the shape of Figures 9(c) and 9(d): one chunk count,
// two rates, more events at the higher rate.
func eventsGrowWithRate(t *testing.T, tbl *Table) {
	low := atoi(t, cell(t, tbl, 0, 2))
	high := atoi(t, cell(t, tbl, 1, 2))
	if high <= low {
		t.Fatalf("events should grow with rate: %d (%s pps) vs %d (%s pps)",
			low, cell(t, tbl, 0, 0), high, cell(t, tbl, 1, 0))
	}
}

func wantRows(n int) func(*testing.T, *Table) {
	return func(t *testing.T, tbl *Table) {
		if len(tbl.Rows) != n {
			t.Fatalf("rows: %d, want %d", len(tbl.Rows), n)
		}
	}
}

// shapes holds each ledger entry's shape assertion at quick scale, keyed by
// ledger id; TestLedgerMatchesReproductionDoc fails on an entry without one.
var shapes = map[string]func(*testing.T, *Table){
	"f7": func(t *testing.T, tbl *Table) {
		// The new instance must take over packets after the move.
		for _, row := range tbl.Rows {
			if atoi(t, row[2]) > 0 {
				return
			}
		}
		t.Fatal("new instance never processed packets")
	},
	"f8": func(t *testing.T, tbl *Table) {
		// The note carries the tail fraction; check it lands near 9%.
		for _, n := range tbl.Notes {
			rest, ok := strings.CutPrefix(n, "P(duration > 1500 s) = ")
			if !ok {
				continue
			}
			frac, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, ' ')], 64)
			if err != nil {
				t.Fatalf("parse note %q: %v", n, err)
			}
			if frac < 0.05 || frac > 0.14 {
				t.Fatalf("tail fraction %v outside [0.05,0.14]", frac)
			}
			return
		}
		t.Fatal("tail note missing")
	},
	"t2": func(t *testing.T, tbl *Table) {
		if cell(t, tbl, 0, 1) != "Y" || cell(t, tbl, 0, 2) != "Y" || cell(t, tbl, 0, 3) != "Y" {
			t.Fatal("SDMBN must be fully supported")
		}
		if cell(t, tbl, 1, 2) != "N" {
			t.Fatal("snapshot scale-down must be unsupported")
		}
	},
	"t3": func(t *testing.T, tbl *Table) {
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
	},
	"f9ab": func(t *testing.T, tbl *Table) {
		// 4 rows: prads x2, bro x2. Get must grow with chunks for each MB.
		if lo, hi := duration(t, tbl, 0, 2), duration(t, tbl, 1, 2); hi <= lo {
			t.Fatalf("prads get not growing: %v vs %v", lo, hi)
		}
		if lo, hi := duration(t, tbl, 2, 2), duration(t, tbl, 3, 2); hi <= lo {
			t.Fatalf("bro get not growing: %v vs %v", lo, hi)
		}
	},
	"f9c": eventsGrowWithRate,
	"f9d": eventsGrowWithRate,
	"f10a": func(t *testing.T, tbl *Table) {
		if lo, hi := duration(t, tbl, 0, 1), duration(t, tbl, 1, 1); hi <= lo {
			t.Fatalf("move time not growing with chunks: %v vs %v", lo, hi)
		}
	},
	"f10b": wantRows(2),
	"snap": func(t *testing.T, tbl *Table) {
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
	},
	"sm": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			if row[0] == "packets buffered" && atoi(t, row[1]) > 0 {
				return
			}
		}
		t.Fatal("no packets buffered during halt window")
	},
	"corr": func(t *testing.T, tbl *Table) {
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "0" {
				t.Fatalf("mismatches in %v", row)
			}
		}
	},
	"perf": wantRows(2),
	"comp": func(t *testing.T, tbl *Table) {
		plain, comp := atoi(t, cell(t, tbl, 0, 2)), atoi(t, cell(t, tbl, 1, 2))
		if comp >= plain {
			t.Fatalf("compression did not shrink transfers: %d vs %d", comp, plain)
		}
	},
}

func TestFigure7Runs(t *testing.T)                { checkEntry(t, "f7") }
func TestFigure8Shape(t *testing.T)               { checkEntry(t, "f8") }
func TestTable2Classifications(t *testing.T)      { checkEntry(t, "t2") }
func TestTable3Shape(t *testing.T)                { checkEntry(t, "t3") }
func TestFigure9Shape(t *testing.T)               { checkEntry(t, "f9ab") }
func TestFigure9EventsGrowWithRate(t *testing.T)  { checkEntry(t, "f9c") }
func TestFigure9dEventsGrowWithRate(t *testing.T) { checkEntry(t, "f9d") }
func TestFigure10aShape(t *testing.T)             { checkEntry(t, "f10a") }
func TestFigure10bRuns(t *testing.T)              { checkEntry(t, "f10b") }
func TestSnapshotComparisonShape(t *testing.T)    { checkEntry(t, "snap") }
func TestSplitMergeBufferingShape(t *testing.T)   { checkEntry(t, "sm") }
func TestCorrectnessDiffZero(t *testing.T)        { checkEntry(t, "corr") }
func TestLatencyDuringGetBounded(t *testing.T)    { checkEntry(t, "perf") }
func TestCompressionAblationShape(t *testing.T)   { checkEntry(t, "comp") }

// TestRenderRowWiderThanHeader: a row with more cells than Columns renders
// (it used to index past the column widths and panic).
func TestRenderRowWiderThanHeader(t *testing.T) {
	tbl := &Table{ID: "x", Title: "wide", Columns: []string{"a"}}
	tbl.AddRow("1", "extra")
	if out := tbl.Render(); !strings.Contains(out, "1  extra\n") {
		t.Fatalf("wide row not rendered:\n%s", out)
	}
}

// TestLedgerMatchesReproductionDoc keeps the ledger, its shape assertions and
// docs/REPRODUCTION.md naming the same things: every ledger id has a shape
// and a row in the document's ledger table, every row of that table names a
// ledger id, and every Benchmark function left in the root package is named
// in the document.
func TestLedgerMatchesReproductionDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/REPRODUCTION.md")
	if err != nil {
		t.Fatal(err)
	}
	// Ledger rows are the table rows whose first cell is a back-quoted id
	// and whose command is an openmb-bench invocation.
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|.*openmb-bench -exp ([a-z0-9]+) ").FindAllStringSubmatch(string(doc), -1) {
		if m[1] != m[2] {
			t.Errorf("row %s: command runs -exp %s", m[1], m[2])
		}
		rows[m[1]] = true
	}
	ids := map[string]bool{}
	for _, e := range Ledger {
		if ids[e.ID] {
			t.Errorf("ledger id %s listed twice", e.ID)
		}
		ids[e.ID] = true
		if !rows[e.ID] {
			t.Errorf("ledger id %s has no row in docs/REPRODUCTION.md", e.ID)
		}
		if shapes[e.ID] == nil {
			t.Errorf("ledger id %s has no shape assertion", e.ID)
		}
	}
	for id := range rows {
		if !ids[id] {
			t.Errorf("docs/REPRODUCTION.md has a row for %s, which is not a ledger id", id)
		}
	}
	for id := range shapes {
		if !ids[id] {
			t.Errorf("shape assertion for %s, which is not a ledger id", id)
		}
	}

	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	files, err := os.ReadDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile("../../" + f.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
			if !strings.Contains(string(doc), "`"+m[1]+"`") {
				t.Errorf("%s: %s is not named in docs/REPRODUCTION.md", f.Name(), m[1])
			}
		}
	}
}
