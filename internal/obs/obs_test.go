package obs

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"openmb/internal/packet"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // Observe clamps; raw index also maps to 0
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},         // 1024µs bound = 1µs<<10
		{time.Second, 20},              // ~1.05s bound = 1µs<<20
		{10 * time.Minute, NumBuckets}, // above the last finite bound
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every finite bucket's bound must land in its own bucket (inclusive
	// upper bound), and one nanosecond above must land in the next.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketIndex(BucketBound(i)); got != i {
			t.Errorf("bucketIndex(BucketBound(%d)) = %d", i, got)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// 100µs lives in bucket 7 (64µs, 128µs]; interpolation stays inside it.
	p50 := s.Quantile(0.5)
	if p50 <= 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Errorf("p50 = %v, want within (64µs, 128µs]", p50)
	}
	if got := s.Mean(); got != 100*time.Microsecond {
		t.Errorf("mean = %v, want 100µs", got)
	}
	// An out-of-range observation lands in +Inf and reports the last
	// finite bound at q=1.
	h.Observe(time.Hour)
	s = h.Snapshot()
	if s.Inf != 1 || s.Count != 101 {
		t.Fatalf("inf=%d count=%d, want 1/101", s.Inf, s.Count)
	}
	if got := s.Quantile(1); got != BucketBound(NumBuckets-1) {
		t.Errorf("q=1 with +Inf obs = %v, want %v", got, BucketBound(NumBuckets-1))
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
}

func TestEmitterRender(t *testing.T) {
	reg := NewRegistry()
	// Two collectors emitting the same counter family: samples must render
	// contiguously under a single HELP/TYPE header.
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Counter("openmb_widgets_total", "widgets", 3, "side", "a")
		e.Gauge("openmb_depth", "queue depth", 1.5)
	}))
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Counter("openmb_widgets_total", "widgets", 7, "side", `b"quote\`)
	}))
	var h Histogram
	h.Observe(3 * time.Microsecond)
	reg.Register(CollectorFunc(func(e *Emitter) {
		e.Histogram("openmb_lat_seconds", "latency", &h)
	}))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	if n := strings.Count(text, "# TYPE openmb_widgets_total counter"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1\n%s", n, text)
	}
	if !strings.Contains(text, `openmb_widgets_total{side="a"} 3`) ||
		!strings.Contains(text, `openmb_widgets_total{side="b\"quote\\"} 7`) {
		t.Errorf("missing counter samples:\n%s", text)
	}
	// Family contiguity: no header between the two widget samples.
	i := strings.Index(text, `openmb_widgets_total{side="a"}`)
	j := strings.Index(text, `openmb_widgets_total{side="b`)
	if i < 0 || j < 0 || strings.Contains(text[i:j], "# ") {
		t.Errorf("family samples not contiguous:\n%s", text)
	}

	series, err := ParseSeries(text)
	if err != nil {
		t.Fatal(err)
	}
	if series[`openmb_widgets_total{side="a"}`] != 3 {
		t.Errorf("parsed a=%v", series[`openmb_widgets_total{side="a"}`])
	}
	if series["openmb_depth"] != 1.5 {
		t.Errorf("parsed gauge=%v", series["openmb_depth"])
	}
	// Histogram invariants within one scrape: +Inf cumulative == _count,
	// buckets cumulative non-decreasing.
	if series[`openmb_lat_seconds_bucket{le="+Inf"}`] != series["openmb_lat_seconds_count"] {
		t.Errorf("+Inf bucket != _count:\n%s", text)
	}
	prev := -1.0
	for i := 0; i < NumBuckets; i++ {
		k := `openmb_lat_seconds_bucket{le="` + formatFloat(BucketBound(i).Seconds()) + `"}`
		v, ok := series[k]
		if !ok {
			t.Fatalf("missing bucket %s", k)
		}
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", k, v, prev)
		}
		prev = v
	}

	names := SortedSeriesNames(series)
	want := []string{"openmb_depth", "openmb_lat_seconds", "openmb_widgets_total"}
	if len(names) != len(want) {
		t.Fatalf("families = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("families = %v, want %v", names, want)
		}
	}
}

func traceKey(last byte, dport uint16) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, last}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: 4000,
		DstPort: dport,
	}
}

func traceID(last byte, dport uint16) packet.FlowID {
	id, _ := traceKey(last, dport).ID()
	return id
}

func TestTracerArmDisarmBudget(t *testing.T) {
	var tr FlowTracer
	if tr.Enabled() != nil || tr.IsArmed() || tr.Records() != nil {
		t.Fatal("zero-value tracer should be disarmed with no records")
	}

	m, err := packet.ParseFieldMatch("tp_dst=80")
	if err != nil {
		t.Fatal(err)
	}
	tr.Arm(TraceSpec{Match: m, Budget: 3})
	a := tr.Enabled()
	if a == nil {
		t.Fatal("armed tracer returned nil session")
	}
	match := traceKey(1, 80)
	matchID, otherID := traceID(1, 80), traceID(1, 443)
	for i := 0; i < 10; i++ {
		a.Record("mb1", HopIngress, matchID, "")
		a.Record("mb1", HopIngress, otherID, "") // never captured
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("budget 3, got %d records", len(recs))
	}
	for _, r := range recs {
		if r.Key != match || r.MB != "mb1" || r.Hop != HopIngress || r.When.IsZero() {
			t.Fatalf("bad record %+v", r)
		}
	}

	// Either-direction: the reverse flow of a match is captured too.
	tr.Arm(TraceSpec{Match: m})
	tr.Enabled().Record("mb1", HopEgress, matchID.Reverse(), "")
	if got := len(tr.Records()); got != 1 {
		t.Fatalf("reverse-direction record not captured (got %d)", got)
	}

	tr.Disarm()
	if tr.Enabled() != nil || tr.IsArmed() {
		t.Fatal("still armed after Disarm")
	}
	// Records survive disarm (arm, capture, disarm, dump).
	if got := len(tr.Records()); got != 1 {
		t.Fatalf("records lost on disarm (got %d)", got)
	}
	spec, ok := tr.Spec()
	if !ok || spec.Budget != DefaultTraceBudget {
		t.Fatalf("spec after disarm = %+v ok=%v", spec, ok)
	}
}

func TestTracerRecordEmitsNote(t *testing.T) {
	var tr FlowTracer
	tr.Arm(TraceSpec{Match: packet.MatchAll})
	tr.Enabled().RecordEmits("mb1", traceID(1, 80), 2)
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Note != "emits=2" || recs[0].Hop != HopVerdict {
		t.Fatalf("bad verdict record: %+v", recs)
	}
	if !strings.Contains(recs[0].String(), "mb1 verdict") {
		t.Fatalf("rendered record %q", recs[0].String())
	}
}

// TestCompileEquivalence pins the lowered match (FieldMatch.ForID, what Arm
// compiles a spec to) to field-by-field semantics across every predicate
// shape the tracer arms with.
func TestCompileEquivalence(t *testing.T) {
	keys := []packet.FlowKey{
		traceKey(1, 80), traceKey(2, 80), traceKey(1, 443),
		traceKey(1, 80).Reverse(),
		{SrcIP: netip.AddrFrom4([4]byte{172, 16, 0, 1}), DstIP: netip.AddrFrom4([4]byte{8, 8, 8, 8}), Proto: packet.ProtoUDP, SrcPort: 53, DstPort: 53},
	}
	for _, spec := range []string{
		"", "nw_src=10.0.0.1", "nw_src=10.0.0.0/24", "nw_dst=1.1.1.1",
		"tp_src=4000", "tp_dst=80", "nw_proto=tcp",
		"nw_src=10.0.0.1,tp_dst=80,nw_proto=tcp",
	} {
		m, err := packet.ParseFieldMatch(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		pred := m.ForID()
		for _, k := range keys {
			want := (!m.SrcPrefix.IsValid() || m.SrcPrefix.Contains(k.SrcIP)) &&
				(!m.DstPrefix.IsValid() || m.DstPrefix.Contains(k.DstIP)) &&
				(m.Proto == 0 || m.Proto == k.Proto) &&
				(!m.HasSrcPort || m.SrcPort == k.SrcPort) &&
				(!m.HasDstPort || m.DstPort == k.DstPort)
			id, _ := k.ID()
			if pred.Match(id) != want || m.Match(k) != want {
				t.Errorf("ForID(%q).Match(%v) = %v, Match = %v, field by field %v", spec, k, pred.Match(id), m.Match(k), want)
			}
		}
	}
}

// TestTracerDisarmedAllocs pins the disarmed hot path: the Enabled() check
// must not allocate.
func TestTracerDisarmedAllocs(t *testing.T) {
	var tr FlowTracer
	if n := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() != nil {
			t.Fatal("unexpectedly armed")
		}
	}); n != 0 {
		t.Fatalf("disarmed check allocates %v/op, want 0", n)
	}
}

// TestTracerArmedNonMatchingAllocs pins the armed-but-filtered path: packets
// that fail the predicate must not allocate either, so arming a narrow
// filter on a busy runtime costs only the predicate calls.
func TestTracerArmedNonMatchingAllocs(t *testing.T) {
	var tr FlowTracer
	m, err := packet.ParseFieldMatch("nw_src=192.0.2.99")
	if err != nil {
		t.Fatal(err)
	}
	tr.Arm(TraceSpec{Match: m})
	key := traceID(1, 80)
	a := tr.Enabled()
	if n := testing.AllocsPerRun(1000, func() {
		a.Record("mb1", HopIngress, key, "")
		a.RecordEmits("mb1", key, 1)
	}); n != 0 {
		t.Fatalf("armed non-matching path allocates %v/op, want 0", n)
	}
}

// BenchmarkTracerDisarmed measures the disarmed hot-path check — the cost
// every packet pays once the tracer exists. One atomic pointer load:
// sub-nanosecond on anything modern.
func BenchmarkTracerDisarmed(b *testing.B) {
	var tr FlowTracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() != nil {
			b.Fatal("armed")
		}
	}
}

// BenchmarkTracerArmedNonMatching measures the armed-but-filtered per-hook
// cost: the compiled predicate, twice (both directions).
func BenchmarkTracerArmedNonMatching(b *testing.B) {
	var tr FlowTracer
	m, err := packet.ParseFieldMatch("nw_src=192.0.2.99")
	if err != nil {
		b.Fatal(err)
	}
	tr.Arm(TraceSpec{Match: m})
	key := traceID(1, 80)
	a := tr.Enabled()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record("mb1", HopIngress, key, "")
	}
}
