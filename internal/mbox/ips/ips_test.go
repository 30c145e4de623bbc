package ips

import (
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/state"
	"openmb/internal/trace"
)

func tcpPkt(src, dst string, sp, dp uint16, flags uint8, payload string) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		Proto: packet.ProtoTCP, SrcPort: sp, DstPort: dp,
		Flags: flags, TTL: 64, Payload: []byte(payload),
	}
}

// run processes packets through a runtime and returns it (caller closes).
func run(t *testing.T, i *IPS, pkts ...*packet.Packet) *mbox.Runtime {
	t.Helper()
	rt := mbox.New("ips1", i, mbox.Options{})
	t.Cleanup(rt.Close)
	for _, p := range pkts {
		rt.HandlePacket(p)
	}
	if !rt.Drain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	return rt
}

// handshake returns the three packets of a TCP handshake for a flow.
func handshake(src, dst string, sp, dp uint16) []*packet.Packet {
	return []*packet.Packet{
		tcpPkt(src, dst, sp, dp, packet.FlagSYN, ""),
		tcpPkt(dst, src, dp, sp, packet.FlagSYN|packet.FlagACK, ""),
		tcpPkt(src, dst, sp, dp, packet.FlagACK, ""),
	}
}

// teardown returns FIN/FIN-ACK packets closing the flow.
func teardown(src, dst string, sp, dp uint16) []*packet.Packet {
	return []*packet.Packet{
		tcpPkt(src, dst, sp, dp, packet.FlagFIN|packet.FlagACK, ""),
		tcpPkt(dst, src, dp, sp, packet.FlagFIN|packet.FlagACK, ""),
	}
}

func TestConnStateMachineCleanClose(t *testing.T) {
	i := New()
	pkts := append(handshake("10.0.0.1", "1.1.1.1", 1234, 80),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK|packet.FlagPSH, "hello"))
	pkts = append(pkts, teardown("10.0.0.1", "1.1.1.1", 1234, 80)...)
	rt := run(t, i, pkts...)
	if i.ConnCount() != 0 {
		t.Fatalf("connection not removed after close: %d", i.ConnCount())
	}
	logs := rt.Log("conn")
	if len(logs) != 1 {
		t.Fatalf("conn.log entries: %v", logs)
	}
	if !strings.Contains(logs[0], "state=SF") {
		t.Fatalf("clean close should log SF: %s", logs[0])
	}
}

func TestConnStateRejected(t *testing.T) {
	i := New()
	rt := run(t, i,
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagSYN, ""),
		tcpPkt("1.1.1.1", "10.0.0.1", 80, 1234, packet.FlagRST, ""),
	)
	logs := rt.Log("conn")
	if len(logs) != 1 || !strings.Contains(logs[0], "state=REJ") {
		t.Fatalf("rejected conn log: %v", logs)
	}
}

func TestConnStateMidstream(t *testing.T) {
	i := New()
	run(t, i, tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "data"))
	conn, ok := i.Connection(tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, 0, "").Flow())
	if !ok || conn.State != StateOTH {
		t.Fatalf("midstream conn: %+v ok=%v", conn, ok)
	}
}

func TestHTTPLogPairsRequestResponse(t *testing.T) {
	i := New()
	pkts := append(handshake("10.0.0.1", "1.1.1.1", 1234, 80),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"),
		tcpPkt("1.1.1.1", "10.0.0.1", 80, 1234, packet.FlagACK, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
	)
	rt := run(t, i, pkts...)
	httpLog := rt.Log("http")
	if len(httpLog) != 1 {
		t.Fatalf("http.log: %v", httpLog)
	}
	for _, want := range []string{"GET", "/index.html", "status=200", "host=example.com"} {
		if !strings.Contains(httpLog[0], want) {
			t.Fatalf("http.log missing %q: %s", want, httpLog[0])
		}
	}
}

func TestHTTPParserSurvivesPacketSplit(t *testing.T) {
	// A request line split across two packets must still parse — the
	// parser buffer is part of the serialized state.
	i := New()
	pkts := append(handshake("10.0.0.1", "1.1.1.1", 1234, 80),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET /split"),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, ".html HTTP/1.1\r\n"),
		tcpPkt("1.1.1.1", "10.0.0.1", 80, 1234, packet.FlagACK, "HTTP/1.1 404 Not Found\r\n"),
	)
	rt := run(t, i, pkts...)
	httpLog := rt.Log("http")
	if len(httpLog) != 1 || !strings.Contains(httpLog[0], "/split.html") || !strings.Contains(httpLog[0], "status=404") {
		t.Fatalf("split request: %v", httpLog)
	}
}

func TestSignatureAlertAndDrop(t *testing.T) {
	i := New()
	if err := i.Config().Set("rules/r1", []string{`alert tcp dport=80 content="evil" msg="evil seen"`}); err != nil {
		t.Fatal(err)
	}
	if err := i.Config().Set("rules/r2", []string{`drop tcp dport=80 content="attack" msg="blocked"`}); err != nil {
		t.Fatal(err)
	}
	var emitted int
	rt := mbox.New("ips1", i, mbox.Options{})
	rt.SetForward(func(*packet.Packet) { emitted++ })
	defer rt.Close()
	rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "an evil payload"))
	rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "an attack payload"))
	rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "benign"))
	rt.Drain(5 * time.Second)
	alerts, dropped, _, _ := i.Report()
	if alerts != 2 || dropped != 1 {
		t.Fatalf("alerts=%d dropped=%d", alerts, dropped)
	}
	if emitted != 2 { // the drop rule suppressed one packet
		t.Fatalf("emitted=%d, want 2", emitted)
	}
	if lines := rt.Log("alert"); len(lines) != 2 {
		t.Fatalf("alert log: %v", lines)
	}
}

func TestSignatureRecompileOnConfigChange(t *testing.T) {
	i := New()
	rt := run(t, i, tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "evil"))
	if a, _, _, _ := i.Report(); a != 0 {
		t.Fatal("alert before rule installed")
	}
	i.Config().Set("rules/r1", []string{`alert tcp content="evil" msg="m"`})
	rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "evil"))
	rt.Drain(5 * time.Second)
	if a, _, _, _ := i.Report(); a != 1 {
		t.Fatalf("rule not recompiled: alerts=%d", a)
	}
}

func TestParseSignatureErrors(t *testing.T) {
	bad := []string{
		"",
		"alert",
		`bogus tcp content="x"`,
		`alert xyz content="x"`,
		`alert tcp dport=notaport content="x"`,
		`alert tcp msg="no content"`,
		`alert tcp badopt=1 content="x"`,
	}
	for _, rule := range bad {
		if _, err := parseSignature("r", rule); err == nil {
			t.Errorf("%q: expected error", rule)
		}
	}
	sig, err := parseSignature("r", `drop udp dport=53 content="x" msg="m"`)
	if err != nil || sig.action != "drop" || sig.proto != 17 || sig.dport != 53 {
		t.Fatalf("good rule: %+v err=%v", sig, err)
	}
}

func TestScanDetection(t *testing.T) {
	i := New()
	i.Config().Set("scan/port_threshold", []string{"5"})
	var pkts []*packet.Packet
	for port := uint16(1); port <= 6; port++ {
		pkts = append(pkts, tcpPkt("10.9.9.9", "1.1.1.1", 40000+port, port, packet.FlagSYN, ""))
	}
	rt := run(t, i, pkts...)
	_, _, _, scans := i.Report()
	if scans != 1 {
		t.Fatalf("scan alerts: %d", scans)
	}
	found := false
	for _, l := range rt.Log("alert") {
		if strings.Contains(l, "scan src=10.9.9.9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("scan alert not logged: %v", rt.Log("alert"))
	}
	// Only once.
	rt.HandlePacket(tcpPkt("10.9.9.9", "1.1.1.1", 40010, 99, packet.FlagSYN, ""))
	rt.Drain(5 * time.Second)
	if _, _, _, scans := i.Report(); scans != 1 {
		t.Fatalf("scan alert duplicated: %d", scans)
	}
}

func TestScanTrackerMergeUnion(t *testing.T) {
	a, b := newScanTracker(10), newScanTracker(10)
	src := netip.MustParseAddr("10.9.9.9")
	dst := netip.MustParseAddr("1.1.1.1")
	for port := uint16(1); port <= 6; port++ {
		a.observe(src, dst, port)
	}
	for port := uint16(4); port <= 9; port++ {
		b.observe(src, dst, port)
	}
	blob, err := a.marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.mergeFrom(blob); err != nil {
		t.Fatal(err)
	}
	rec := b.Sources[src.String()]
	if len(rec.Ports) != 9 {
		t.Fatalf("merged ports: %d, want 9 (union)", len(rec.Ports))
	}
}

func TestScanMergeCrossesThreshold(t *testing.T) {
	// Neither instance saw enough ports alone; the merged tracker has.
	// A subsequent packet at the merged instance must fire the alert —
	// the cross-MB behaviour Split/Merge cannot provide (§2.1).
	a, b := New(), New()
	a.Config().Set("scan/port_threshold", []string{"8"})
	b.Config().Set("scan/port_threshold", []string{"8"})
	var aPkts, bPkts []*packet.Packet
	for port := uint16(1); port <= 4; port++ {
		aPkts = append(aPkts, tcpPkt("10.9.9.9", "1.1.1.1", 40000+port, port, packet.FlagSYN, ""))
	}
	for port := uint16(5); port <= 7; port++ {
		bPkts = append(bPkts, tcpPkt("10.9.9.9", "1.1.1.1", 40000+port, port, packet.FlagSYN, ""))
	}
	run(t, a, aPkts...)
	rtB := run(t, b, bPkts...)
	blob, _ := a.GetShared(state.Supporting, func() {})
	if err := b.PutShared(state.Supporting, blob); err != nil {
		t.Fatal(err)
	}
	rtB.HandlePacket(tcpPkt("10.9.9.9", "1.1.1.1", 41000, 99, packet.FlagSYN, ""))
	rtB.Drain(5 * time.Second)
	if _, _, _, scans := b.Report(); scans != 1 {
		t.Fatalf("merged scan state did not trigger alert: %d", scans)
	}
}

func TestGetPutMovesAnalyzerTree(t *testing.T) {
	src := New()
	pkts := append(handshake("10.0.0.1", "1.1.1.1", 1234, 80),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET /page HTTP/1.1\r\n"))
	run(t, src, pkts...)

	dst := New()
	moved := 0
	err := src.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		if err != nil {
			return err
		}
		moved++
		return dst.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob})
	})
	if err != nil || moved != 1 {
		t.Fatalf("get: moved=%d err=%v", moved, err)
	}
	src.DelPerflow(state.Supporting, packet.MatchAll)

	// The destination continues the flow: the response completes the
	// HTTP transaction parsed from state moved mid-request.
	rtDst := mbox.New("dst", dst, mbox.Options{})
	defer rtDst.Close()
	rtDst.HandlePacket(tcpPkt("1.1.1.1", "10.0.0.1", 80, 1234, packet.FlagACK, "HTTP/1.1 200 OK\r\n"))
	rtDst.Drain(5 * time.Second)
	httpLog := rtDst.Log("http")
	if len(httpLog) != 1 || !strings.Contains(httpLog[0], "/page") || !strings.Contains(httpLog[0], "status=200") {
		t.Fatalf("moved analyzer tree lost request state: %v", httpLog)
	}
}

func TestMovedFlagNoLogOnDelete(t *testing.T) {
	i := New()
	rt := run(t, i, handshake("10.0.0.1", "1.1.1.1", 1234, 80)...)
	n, err := i.DelPerflow(state.Supporting, packet.MatchAll)
	if err != nil || n != 1 {
		t.Fatalf("del: %d %v", n, err)
	}
	if logs := rt.Log("conn"); len(logs) != 0 {
		t.Fatalf("delete after move must not log: %v", logs)
	}
}

func TestSweepIdleLogsAbruptTerminations(t *testing.T) {
	i := New()
	p := handshake("10.0.0.1", "1.1.1.1", 1234, 80)
	for idx, pk := range p {
		pk.Timestamp = int64(idx)
	}
	run(t, i, p...)
	lines := i.SweepIdle(1000, nil)
	if len(lines) != 1 || !strings.Contains(lines[0], "state=S1") {
		t.Fatalf("sweep: %v", lines)
	}
	if i.ConnCount() != 0 {
		t.Fatal("sweep did not remove connection")
	}
}

func TestConnJSONRoundTripProperty(t *testing.T) {
	f := func(op, rp, ob, rb uint64, sigMatches uint64, established bool) bool {
		conn := &Conn{
			Key:   tcpPkt("10.0.0.1", "1.1.1.1", 99, 80, 0, "").Flow(),
			Proto: packet.ProtoTCP, State: StateS1,
			Orig: EndpointStats{Packets: op, Bytes: ob},
			Resp: EndpointStats{Packets: rp, Bytes: rb},
			HTTP: &HTTPAnalyzer{
				ReqBuf:  []byte("GET /partial"),
				Pending: []HTTPRequest{{Method: "GET", URI: "/a"}},
			},
			SigMatches: sigMatches, Established: established,
			History: "ShAdD",
		}
		conn.KeyS = conn.Key.String()
		blob, err := jsonMarshal(conn)
		if err != nil {
			return false
		}
		var got Conn
		if err := jsonUnmarshal(blob, &got); err != nil {
			return false
		}
		return got.Orig == conn.Orig && got.Resp == conn.Resp &&
			got.SigMatches == conn.SigMatches && got.Established == conn.Established &&
			got.History == conn.History &&
			got.HTTP != nil && string(got.HTTP.ReqBuf) == "GET /partial" &&
			len(got.HTTP.Pending) == 1 && got.HTTP.Pending[0].URI == "/a"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPutMergesWithLocallyStartedFlow(t *testing.T) {
	// The flow also started at the destination (packets raced the move):
	// counters must sum, not reset.
	dst := New()
	run(t, dst, tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "xx"))
	incoming := newConn(tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, 0, "").FlowID(), 0)
	incoming.Orig.Packets = 5
	incoming.Orig.Bytes = 50
	incoming.KeyS = incoming.Key.String()
	blob, _ := jsonMarshal(incoming)
	if err := dst.PutPerflow(state.Supporting, state.Chunk{Key: incoming.Key.Canonical(), Blob: blob}); err != nil {
		t.Fatal(err)
	}
	conn, ok := dst.Connection(incoming.Key)
	if !ok || conn.Orig.Packets != 6 || conn.Orig.Bytes != 52 {
		t.Fatalf("merge: %+v ok=%v", conn.Orig, ok)
	}
}

func TestCorrectnessUnmodifiedVsMoved(t *testing.T) {
	// §8.2: the output of an unmodified IPS and of a pair of
	// OpenMB-enabled IPSes with a mid-trace move must be identical.
	tr := trace.Cloud(trace.CloudConfig{Seed: 42, Flows: 40})

	// Reference: single IPS sees everything.
	ref := New()
	rtRef := mbox.New("ref", ref, mbox.Options{})
	defer rtRef.Close()
	for _, p := range tr.Packets {
		rtRef.HandlePacket(p)
	}
	rtRef.Drain(10 * time.Second)
	refLogs := append(rtRef.Log("conn"), ref.FlushAll(nil)...)

	// Split run: first half at A, state moved, second half at B.
	a, b := New(), New()
	rtA := mbox.New("a", a, mbox.Options{})
	rtB := mbox.New("b", b, mbox.Options{})
	defer rtA.Close()
	defer rtB.Close()
	half := len(tr.Packets) / 2
	for _, p := range tr.Packets[:half] {
		rtA.HandlePacket(p)
	}
	rtA.Drain(10 * time.Second)
	err := a.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		if err != nil {
			return err
		}
		return b.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob})
	})
	if err != nil {
		t.Fatal(err)
	}
	a.DelPerflow(state.Supporting, packet.MatchAll)
	for _, p := range tr.Packets[half:] {
		rtB.HandlePacket(p)
	}
	rtB.Drain(10 * time.Second)
	splitLogs := append(rtA.Log("conn"), rtB.Log("conn")...)
	splitLogs = append(splitLogs, b.FlushAll(nil)...)

	if len(refLogs) != len(splitLogs) {
		t.Fatalf("conn.log entry counts differ: ref=%d split=%d", len(refLogs), len(splitLogs))
	}
	refSet := map[string]int{}
	for _, l := range refLogs {
		refSet[l]++
	}
	for _, l := range splitLogs {
		refSet[l]--
		if refSet[l] < 0 {
			t.Fatalf("split run produced entry absent from reference: %s", l)
		}
	}
}

func BenchmarkProcessHTTP(b *testing.B) {
	i := New()
	ctx := mbox.NewBenchContext()
	p := tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET /x HTTP/1.1\r\n")
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		mbtest.ProcessOne(i, ctx, p)
	}
}

func BenchmarkSerializeConn(b *testing.B) {
	i := New()
	run := mbox.New("b", i, mbox.Options{})
	defer run.Close()
	pkts := append(handshake("10.0.0.1", "1.1.1.1", 1234, 80),
		tcpPkt("10.0.0.1", "1.1.1.1", 1234, 80, packet.FlagACK, "GET /page HTTP/1.1\r\nHost: h\r\n"))
	for _, p := range pkts {
		run.HandlePacket(p)
	}
	run.Drain(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		err := i.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
			_, err := build(func() {})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// jsonMarshal/jsonUnmarshal alias encoding/json for test readability.
func jsonMarshal(v interface{}) ([]byte, error)   { return json.Marshal(v) }
func jsonUnmarshal(b []byte, v interface{}) error { return json.Unmarshal(b, v) }

func TestUDPAndICMPConnections(t *testing.T) {
	i := New()
	udp := &packet.Packet{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("1.1.1.1"),
		Proto: packet.ProtoUDP, SrcPort: 5353, DstPort: 53, Payload: []byte("query"),
	}
	udpResp := &packet.Packet{
		SrcIP: netip.MustParseAddr("1.1.1.1"), DstIP: netip.MustParseAddr("10.0.0.1"),
		Proto: packet.ProtoUDP, SrcPort: 53, DstPort: 5353, Payload: []byte("answer"),
	}
	icmp := &packet.Packet{
		SrcIP: netip.MustParseAddr("10.0.0.2"), DstIP: netip.MustParseAddr("1.1.1.1"),
		Proto: packet.ProtoICMP, Payload: []byte("ping"),
	}
	run(t, i, udp, udpResp, icmp)
	if i.ConnCount() != 2 {
		t.Fatalf("connections: %d", i.ConnCount())
	}
	conn, ok := i.Connection(udp.Flow())
	if !ok || conn.State != StateSF {
		t.Fatalf("udp conn after both directions: %+v ok=%v", conn.State, ok)
	}
	conn, ok = i.Connection(icmp.Flow())
	if !ok || conn.State != StateS0 {
		t.Fatalf("one-way icmp conn: %+v ok=%v", conn.State, ok)
	}
	// UDP/ICMP state moves like TCP state.
	dst := New()
	moved := 0
	err := i.GetPerflow(state.Supporting, packet.MatchAll, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
		blob, err := build(func() {})
		if err != nil {
			return err
		}
		moved++
		return dst.PutPerflow(state.Supporting, state.Chunk{Key: key, Blob: blob})
	})
	if err != nil || moved != 2 {
		t.Fatalf("moved=%d err=%v", moved, err)
	}
	if dst.ConnCount() != 2 {
		t.Fatalf("dst connections: %d", dst.ConnCount())
	}
}

func TestHistoryBounded(t *testing.T) {
	i := New()
	rt := mbox.New("b", i, mbox.Options{})
	defer rt.Close()
	for n := 0; n < 200; n++ {
		rt.HandlePacket(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, packet.FlagACK, "d"))
	}
	rt.Drain(10 * time.Second)
	conn, _ := i.Connection(tcpPkt("10.0.0.1", "1.1.1.1", 1, 80, 0, "").Flow())
	if len(conn.History) > 64 {
		t.Fatalf("history unbounded: %d", len(conn.History))
	}
}

func TestPutGarbageBlob(t *testing.T) {
	i := New()
	if err := i.PutPerflow(state.Supporting, state.Chunk{Blob: []byte("not json")}); err == nil {
		t.Fatal("garbage blob accepted")
	}
	if err := i.PutPerflow(state.Supporting, state.Chunk{Blob: []byte(`{"key":"garbage"}`)}); err == nil {
		t.Fatal("bad key accepted")
	}
	if err := i.PutShared(state.Supporting, []byte("not json")); err == nil {
		t.Fatal("garbage shared blob accepted")
	}
}
