package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"openmb/internal/packet"
)

func TestCloudDeterministic(t *testing.T) {
	a := Cloud(CloudConfig{Seed: 1, Flows: 50})
	b := Cloud(CloudConfig{Seed: 1, Flows: 50})
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if !reflect.DeepEqual(a.Packets[i], b.Packets[i]) {
			t.Fatalf("packet %d differs", i)
		}
	}
	c := Cloud(CloudConfig{Seed: 2, Flows: 50})
	same := len(a.Packets) == len(c.Packets)
	if same {
		same = reflect.DeepEqual(a.Packets[0], c.Packets[0])
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCloudShape(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 3, Flows: 200})
	s := tr.Stats()
	if s.Flows != 200 {
		t.Fatalf("flows: %d", s.Flows)
	}
	frac := float64(s.HTTPFlows) / float64(s.Flows)
	if frac < 0.40 || frac > 0.70 {
		t.Fatalf("HTTP fraction %v outside [0.40,0.70]", frac)
	}
	// Timestamps are sorted.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Timestamp < tr.Packets[i-1].Timestamp {
			t.Fatalf("packets unsorted at %d", i)
		}
	}
	// HTTP flows carry HTTP request lines.
	seenGET := false
	for _, p := range tr.Packets {
		if p.DstPort == 80 && bytes.HasPrefix(p.Payload, []byte("GET ")) {
			seenGET = true
			break
		}
	}
	if !seenGET {
		t.Fatal("no HTTP request payloads found")
	}
}

func TestCloudHandshakeStructure(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 4, Flows: 5})
	// For every flow, the first packet in time must be the SYN.
	first := map[packet.FlowKey]*packet.Packet{}
	for _, p := range tr.Packets {
		k := p.Flow().Canonical()
		if _, ok := first[k]; !ok {
			first[k] = p
		}
	}
	for k, p := range first {
		if p.Flags != packet.FlagSYN {
			t.Fatalf("flow %v first packet flags=%x, want SYN", k, p.Flags)
		}
	}
}

func TestHTTPMatchSelectsHTTP(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 5, Flows: 100})
	m := HTTPMatch()
	for _, f := range tr.Flows {
		if got := m.MatchEither(f.Key); got != f.HTTP {
			t.Fatalf("flow %v: match=%v, HTTP=%v", f.Key, got, f.HTTP)
		}
	}
}

func TestUnivDCTail(t *testing.T) {
	cfg := UnivDCConfig{Seed: 7, Flows: 4000}
	tr := UnivDC(cfg)
	long := 0
	for _, f := range tr.Flows {
		if f.Duration() > 1500*time.Second {
			long++
		}
	}
	frac := float64(long) / float64(len(tr.Flows))
	// The paper reports ~9%; accept a generous sampling band.
	if frac < 0.05 || frac > 0.14 {
		t.Fatalf("long-flow fraction %v outside [0.05, 0.14]", frac)
	}
}

func TestUnivDCDurationsBounded(t *testing.T) {
	cfg := UnivDCConfig{Seed: 8, Flows: 500}
	tr := UnivDC(cfg)
	for _, f := range tr.Flows {
		if f.Duration() < 0 || f.Duration() > 2*1500*time.Second {
			t.Fatalf("duration %v out of bounds", f.Duration())
		}
	}
}

func TestParetoAlpha(t *testing.T) {
	alpha := paretoAlpha(1, 1500, 0.09)
	// P(X > 1500) with this alpha must equal 0.09.
	p := math.Pow(1/1500.0, alpha)
	if math.Abs(p-0.09) > 1e-9 {
		t.Fatalf("alpha inversion: P=%v", p)
	}
}

func TestRedundantHasRepeats(t *testing.T) {
	tr := Redundant(RedundantConfig{Seed: 9, Flows: 10})
	counts := map[string]int{}
	for _, p := range tr.Packets {
		if len(p.Payload) >= 100 {
			counts[string(p.Payload)]++
		}
	}
	repeats := 0
	for _, c := range counts {
		if c > 1 {
			repeats += c - 1
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	frac := float64(repeats) / float64(total)
	if frac < 0.3 {
		t.Fatalf("redundancy fraction %v too low for the high-redundancy trace", frac)
	}
}

func TestRedundantDestinationSplit(t *testing.T) {
	tr := Redundant(RedundantConfig{Seed: 10, Flows: 8})
	dcA, _ := packet.ParseFieldMatch("[nw_dst=1.1.1.0/24]")
	dcB, _ := packet.ParseFieldMatch("[nw_dst=1.1.2.0/24]")
	var a, b int
	for _, f := range tr.Flows {
		id, _ := f.Key.ID()
		switch {
		case dcA.ForID().Match(id):
			a++
		case dcB.ForID().Match(id):
			b++
		default:
			t.Fatalf("flow %v in neither DC prefix", f.Key)
		}
	}
	if a != 4 || b != 4 {
		t.Fatalf("split %d/%d, want 4/4", a, b)
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 11, Flows: 20})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("packet count: %d vs %d", len(got.Packets), len(tr.Packets))
	}
	for i := range got.Packets {
		a, b := got.Packets[i], tr.Packets[i]
		if a.Flow() != b.Flow() || a.Timestamp != b.Timestamp || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if len(got.Flows) != len(tr.Flows) {
		t.Fatalf("flows: %d vs %d", len(got.Flows), len(tr.Flows))
	}
}

func TestReadBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACEFILE..."))); err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader should fail")
	}
}

func TestReadTruncatedRecord(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 12, Flows: 2})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated trace should fail")
	}
}

func TestRebuildFlowsCountsBothDirections(t *testing.T) {
	tr := Cloud(CloudConfig{Seed: 13, Flows: 5})
	flows := RebuildFlows(tr.Packets)
	if len(flows) != 5 {
		t.Fatalf("flow count: %d", len(flows))
	}
	for _, f := range flows {
		if f.Packets < 6 {
			t.Fatalf("flow %v packets=%d; both directions should be counted", f.Key, f.Packets)
		}
	}
}

func TestStatsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := Cloud(CloudConfig{Seed: seed % 1000, Flows: 10})
		s := tr.Stats()
		sum := 0
		for _, fl := range tr.Flows {
			sum += fl.Bytes
		}
		return s.Flows == 10 && s.Bytes == sum && s.Packets == len(tr.Packets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCloudGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cloud(CloudConfig{Seed: int64(i), Flows: 100})
	}
}

func BenchmarkFileWrite(b *testing.B) {
	tr := Cloud(CloudConfig{Seed: 1, Flows: 100})
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}
