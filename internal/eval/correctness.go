package eval

import (
	"fmt"
	"time"

	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
	"openmb/internal/trace"
)

// correctnessDiff reproduces the §8.2 correctness experiment: the output of
// a single unmodified middlebox is compared against the combined output of
// two OpenMB-enabled instances with a mid-trace moveInternal between them.
// The paper observed no differences in Bro's conn.log/http.log, PRADS's
// statistics, or RE's decoded packets; mismatches here are counted per
// middlebox.
func correctnessDiff(flows int) (*Table, error) {
	tr := trace.Cloud(trace.CloudConfig{Seed: 61, Flows: flows})
	half := len(tr.Packets) / 2

	t := &Table{
		ID:      "corr",
		Title:   "correctness: unmodified vs OpenMB-enabled output",
		Columns: []string{"mb", "metric", "reference", "openmb", "mismatches"},
	}

	// ---- Bro-like IPS: conn.log + http.log multiset equality.
	refIPS := ips.New()
	refRT := mbox.New("ref", refIPS, mbox.Options{})
	for _, p := range tr.Packets {
		refRT.HandlePacket(p)
	}
	refRT.Drain(60 * time.Second)
	refConn := append(refRT.Log("conn"), refIPS.FlushAll(nil)...)
	refHTTP := refRT.Log("http")
	refRT.Close()

	splitConn, splitHTTP, err := splitRunIPS(tr, half)
	if err != nil {
		return nil, err
	}
	t.AddRow("bro", "conn.log entries", len(refConn), len(splitConn), multisetDiff(refConn, splitConn))
	t.AddRow("bro", "http.log entries", len(refHTTP), len(splitHTTP), multisetDiff(refHTTP, splitHTTP))

	// ---- PRADS-like monitor: collective statistics equality.
	refMon := monitor.New()
	rt := mbox.New("refmon", refMon, mbox.Options{})
	for _, p := range tr.Packets {
		rt.HandlePacket(p)
	}
	rt.Drain(60 * time.Second)
	rt.Close()
	refSnap := refMon.Snapshot()

	gotPkts, gotPerflow, err := splitRunMonitor(tr, half)
	if err != nil {
		return nil, err
	}
	mism := 0
	if gotPkts != refSnap.Shared.Packets {
		mism++
	}
	t.AddRow("prads", "shared packet count", refSnap.Shared.Packets, gotPkts, mism)
	mism = 0
	if gotPerflow != refMon.TotalPerflowPackets() {
		mism++
	}
	t.AddRow("prads", "per-flow packet counts", refMon.TotalPerflowPackets(), gotPerflow, mism)

	t.Notes = append(t.Notes, "paper: no differences in conn.log/http.log, PRADS statistics, or RE decode (RE verified in t3: 0 undecodable)")
	return t, nil
}

// splitRunIPS runs the trace through instance A, moves all state to B via
// the controller mid-trace, then finishes at B. Returns combined logs.
func splitRunIPS(tr *trace.Trace, half int) (conn, http []string, err error) {
	bd, err := bed.New(core.Options{QuietPeriod: 40 * time.Millisecond})
	if err != nil {
		return nil, nil, err
	}
	defer bd.Close()
	a, b := ips.New(), ips.New()
	rtA, err := bd.AddMB("a", a, "")
	if err != nil {
		return nil, nil, err
	}
	rtB, err := bd.AddMB("b", b, "")
	if err != nil {
		return nil, nil, err
	}
	for _, p := range tr.Packets[:half] {
		rtA.HandlePacket(p)
	}
	if !rtA.Drain(60 * time.Second) {
		return nil, nil, fmt.Errorf("eval: instance A did not drain")
	}
	if err := bd.Ctrl.MoveInternal("a", "b", packet.MatchAll); err != nil {
		return nil, nil, err
	}
	if !bd.Ctrl.WaitTxns(60 * time.Second) {
		return nil, nil, fmt.Errorf("eval: move did not complete")
	}
	for _, p := range tr.Packets[half:] {
		rtB.HandlePacket(p)
	}
	if !rtB.Drain(60 * time.Second) {
		return nil, nil, fmt.Errorf("eval: instance B did not drain")
	}
	conn = append(rtA.Log("conn"), rtB.Log("conn")...)
	conn = append(conn, b.FlushAll(nil)...)
	conn = append(conn, a.FlushAll(nil)...)
	http = append(rtA.Log("http"), rtB.Log("http")...)
	return conn, http, nil
}

// splitRunMonitor does the same for the monitor, returning the combined
// shared packet count and per-flow counter sum.
func splitRunMonitor(tr *trace.Trace, half int) (sharedPkts, perflowPkts uint64, err error) {
	bd, err := bed.New(core.Options{QuietPeriod: 40 * time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	defer bd.Close()
	a, b := monitor.New(), monitor.New()
	rtA, err := bd.AddMB("a", a, "")
	if err != nil {
		return 0, 0, err
	}
	rtB, err := bd.AddMB("b", b, "")
	if err != nil {
		return 0, 0, err
	}
	for _, p := range tr.Packets[:half] {
		rtA.HandlePacket(p)
	}
	rtA.Drain(60 * time.Second)
	if err := bd.Ctrl.MoveInternal("a", "b", packet.MatchAll); err != nil {
		return 0, 0, err
	}
	if err := bd.Ctrl.MergeInternal("a", "b"); err != nil {
		return 0, 0, err
	}
	if !bd.Ctrl.WaitTxns(60 * time.Second) {
		return 0, 0, fmt.Errorf("eval: transactions did not complete")
	}
	for _, p := range tr.Packets[half:] {
		rtB.HandlePacket(p)
	}
	rtB.Drain(60 * time.Second)
	return b.Snapshot().Shared.Packets, a.TotalPerflowPackets() + b.TotalPerflowPackets(), nil
}

// multisetDiff counts entries not matched one-to-one between a and b.
func multisetDiff(a, b []string) int {
	counts := map[string]int{}
	for _, s := range a {
		counts[s]++
	}
	for _, s := range b {
		counts[s]--
	}
	diff := 0
	for _, c := range counts {
		if c < 0 {
			c = -c
		}
		diff += c
	}
	return diff
}

// latencyDuringGet reproduces the §8.2 performance check: mean per-packet
// processing latency during normal operation versus while the middlebox is
// serving a get. The paper: Bro 6.93 ms -> 7.06 ms (+1.9%); RE
// 0.781 ms -> 0.790 ms (+1.2%) — i.e. at most ~2%.
func latencyDuringGet(flows, packetsPerPhase int) (*Table, error) {
	t := &Table{
		ID:      "perf",
		Title:   "per-packet processing latency, normal vs during get",
		Columns: []string{"mb", "normal", "during_get", "increase"},
	}
	run := func(name string, logic mbox.Logic, class state.Class) error {
		d, err := newDirectMB("mb", logic)
		if err != nil {
			return err
		}
		defer d.close()
		// Warm phase: normal processing.
		for i := 0; i < packetsPerPhase; i++ {
			p := mbtest.PacketForFlow(i % flows)
			p.Flags = packet.FlagACK
			d.rt.HandlePacket(p)
		}
		d.rt.Drain(120 * time.Second)
		// Get phase: repeated gets while packets flow. Gets are issued
		// back to back so processing overlaps the whole phase.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < packetsPerPhase; i++ {
				p := mbtest.PacketForFlow(i % flows)
				p.Flags = packet.FlagACK
				d.rt.HandlePacket(p)
			}
		}()
		getOp := sbi.OpGetReportPerflow
		if class == state.Supporting {
			getOp = sbi.OpGetSupportPerflow
		}
		for i := 0; i < 3; i++ {
			id, err := d.request(&sbi.Message{Type: sbi.MsgRequest, Op: getOp, Match: packet.MatchAll, Batch: core.DefaultBatchSize})
			if err != nil {
				return err
			}
			if _, err := d.collect(id, 120*time.Second, nil); err != nil {
				return err
			}
		}
		<-done
		d.rt.Drain(120 * time.Second)
		m := d.rt.Metrics()
		inc := "n/a"
		if m.LatencyNormal > 0 {
			inc = fmt.Sprintf("%+.1f%%", 100*(float64(m.LatencyDuringOp)-float64(m.LatencyNormal))/float64(m.LatencyNormal))
		}
		t.AddRow(name, m.LatencyNormal, m.LatencyDuringOp, inc)
		return nil
	}
	mon := monitor.New()
	if err := run("prads", mon, state.Reporting); err != nil {
		return nil, err
	}
	b := ips.New()
	if err := run("bro", b, state.Supporting); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: no significant change (Bro 6.93→7.06 ms, RE 0.781→0.790 ms)")
	return t, nil
}

// compressionAblation reproduces the §8.3 compression experiment: a move of
// n chunks with and without flate compression of state transfers.
func compressionAblation(chunks int) (*Table, error) {
	run := func(compress bool) (time.Duration, uint64, error) {
		b, err := bed.New(core.Options{QuietPeriod: 50 * time.Millisecond, Compress: compress})
		if err != nil {
			return 0, 0, err
		}
		defer b.Close()
		src := mbtest.NewCounterLogic(202)
		src.Preload(chunks)
		if _, err := b.AddMB("src", src, ""); err != nil {
			return 0, 0, err
		}
		if _, err := b.AddMB("dst", mbtest.NewCounterLogic(202), ""); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := b.Ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		bytes := b.Ctrl.Metrics().BytesMoved
		b.Ctrl.WaitTxns(60 * time.Second)
		return elapsed, bytes, nil
	}
	plainTime, plainBytes, err := run(false)
	if err != nil {
		return nil, err
	}
	compTime, compBytes, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "comp",
		Title:   "state-transfer compression ablation (move of dummy chunks)",
		Columns: []string{"variant", "move_time", "bytes_on_wire"},
	}
	t.AddRow("uncompressed", plainTime, plainBytes)
	t.AddRow("compressed", compTime, compBytes)
	if plainBytes > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("compression ratio: %.0f%% reduction (paper: 38%%, latency 110→70 ms)",
			100*(1-float64(compBytes)/float64(plainBytes))))
	}
	return t, nil
}
