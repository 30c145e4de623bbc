package elastic

// Integration beds for the controller-backed actuator:
//
//   - the clone/merge round-trip equivalence bed — scale out under live
//     traffic, scale back in, and require the surviving instance's per-flow
//     state to be byte-identical to a never-scaled control run;
//   - the flash crowd — a paced warm/peak/cool ramp against latency-bound
//     instances, once with the loop resizing the group and once on the
//     frozen fleet, which must shed.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// nFlows is the bed's flowspace: mbtest.FlowN(i) for i < 256 keeps the flow
// index in the source address's last octet, so power-of-two flow ranges are
// exactly expressible as prefixes (flows 32..63 = 10.0.0.32/27) and a
// flowspace split is one FieldMatch.
const nFlows = 64

type flowRange struct{ base, size int }

// slowLogic is the counter middlebox behind a per-packet downstream wait —
// a latency-bound service in the style of a DPI box blocking on an external
// reputation lookup. The wait is a sleep, not a spin, so instances sharing a
// host still scale aggregate throughput with instance count; that is the
// property scale-out exploits. A zero cost returns at once.
type slowLogic struct {
	*mbtest.CounterLogic
	cost time.Duration
}

func (l *slowLogic) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	for i := range pkts {
		time.Sleep(l.cost)
		l.CounterLogic.ProcessBurst(ctxs[i:i+1], pkts[i:i+1])
	}
}

// rangeDriver is the test GroupDriver: buddy-system flowspace splitting
// over counter instances, each waiting perPacket on every packet behind an
// ingress ring of queueSize slots (0: the runtime's default). Each scale-out
// halves the hot member's range and hands the upper half to the clone; each
// retire gives the range back. Routing is a flow-indexed runtime table
// swapped atomically, read by the injector per packet. Logics stay on the
// books after retirement, and a retired runtime's ring sheds stay in the
// drop count, so the audits cover every instance ever spawned.
type rangeDriver struct {
	t         *testing.T
	tr        sbi.Transport
	reconnect bool
	perPacket time.Duration
	queueSize int
	spawned   chan string

	mu           sync.Mutex
	logics       map[string]*mbtest.CounterLogic
	rts          map[string]*mbox.Runtime
	ranges       map[string]flowRange
	carvedFrom   map[string]string
	retiredDrops uint64

	route atomic.Pointer[[nFlows]*mbox.Runtime]
}

func newRangeDriver(t *testing.T, tr sbi.Transport, reconnect bool, perPacket time.Duration, queueSize int) *rangeDriver {
	return &rangeDriver{
		t: t, tr: tr, reconnect: reconnect,
		perPacket: perPacket, queueSize: queueSize,
		spawned:    make(chan string, 16),
		logics:     map[string]*mbtest.CounterLogic{},
		rts:        map[string]*mbox.Runtime{},
		ranges:     map[string]flowRange{},
		carvedFrom: map[string]string{},
	}
}

// seed attaches the group's base instance owning the whole flowspace and
// routes everything to it.
func (d *rangeDriver) seed(name string, preload int) *Member {
	logic := mbtest.NewCounterLogic(0)
	if preload > 0 {
		logic.Preload(preload)
	}
	rt := d.connect(name, logic)
	d.mu.Lock()
	d.ranges[name] = flowRange{0, nFlows}
	d.mu.Unlock()
	var tbl [nFlows]*mbox.Runtime
	for i := range tbl {
		tbl[i] = rt
	}
	d.route.Store(&tbl)
	return &Member{Name: name, Runtime: rt}
}

func (d *rangeDriver) connect(name string, logic *mbtest.CounterLogic) *mbox.Runtime {
	opts := mbox.Options{QueueSize: d.queueSize}
	if d.reconnect {
		opts.Reconnect = true
		opts.ReconnectMin = 2 * time.Millisecond
		opts.ReconnectMax = 40 * time.Millisecond
	}
	rt := mbox.New(name, &slowLogic{CounterLogic: logic, cost: d.perPacket}, opts)
	if err := rt.Connect(d.tr, "controller"); err != nil {
		d.t.Errorf("connect %s: %v", name, err)
		rt.Close()
		return rt
	}
	d.mu.Lock()
	d.logics[name] = logic
	d.rts[name] = rt
	d.mu.Unlock()
	return rt
}

func (d *rangeDriver) Spawn(group string, ordinal int) (*Member, error) {
	name := fmt.Sprintf("%s-%d", group, ordinal)
	rt := d.connect(name, mbtest.NewCounterLogic(0))
	select {
	case d.spawned <- name:
	default:
	}
	return &Member{Name: name, Runtime: rt}, nil
}

func (d *rangeDriver) SplitMatch(group string, from, to *Member) packet.FieldMatch {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.ranges[from.Name]
	if r.size < 2 {
		d.t.Errorf("split of unsplittable range %+v on %s", r, from.Name)
		return packet.MatchAll
	}
	half := r.size / 2
	upper := flowRange{r.base + half, half}
	d.ranges[from.Name] = flowRange{r.base, half}
	d.ranges[to.Name] = upper
	d.carvedFrom[to.Name] = from.Name
	return packet.FieldMatch{SrcPrefix: prefixFor(upper)}
}

// prefixFor maps a power-of-two flow range onto the 10.0.0.0/24 source
// block FlowN uses.
func prefixFor(r flowRange) netip.Prefix {
	return netip.PrefixFrom(
		netip.AddrFrom4([4]byte{10, 0, 0, byte(r.base)}),
		32-bits.TrailingZeros(uint(r.size)),
	)
}

func (d *rangeDriver) Route(group string, members []*Member) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var tbl [nFlows]*mbox.Runtime
	// Flows whose owner is not in the member list (a derouting victim's
	// range, not yet merged back) fall to the seed, members[0]; any live
	// member is CORRECT for counting — scale-in merges every member's
	// records into the survivor — so routing choices affect locality only.
	for f := range tbl {
		tbl[f] = d.rts[members[0].Name]
		for _, m := range members {
			if r, ok := d.ranges[m.Name]; ok && f >= r.base && f < r.base+r.size {
				tbl[f] = d.rts[m.Name]
			}
		}
	}
	d.route.Store(&tbl)
}

func (d *rangeDriver) Retire(group string, m *Member) {
	d.mu.Lock()
	if r, ok := d.ranges[m.Name]; ok {
		parent := d.carvedFrom[m.Name]
		pr := d.ranges[parent]
		// LIFO scale-in means the buddy halves rejoin exactly.
		if pr.base+pr.size == r.base && pr.size == r.size {
			d.ranges[parent] = flowRange{pr.base, pr.size * 2}
		}
		delete(d.ranges, m.Name)
		delete(d.carvedFrom, m.Name)
	}
	rt := d.rts[m.Name]
	delete(d.rts, m.Name)
	d.mu.Unlock()
	if rt != nil {
		rt.Close()
		d.mu.Lock()
		d.retiredDrops += sheds(rt)
		d.mu.Unlock()
	}
}

// inject delivers one packet for flow f through the current routing table.
func (d *rangeDriver) inject(f int) {
	tbl := d.route.Load()
	if rt := tbl[f]; rt != nil {
		rt.HandlePacket(mbtest.PacketForFlow(f))
	}
}

// countFlow sums flow f's counter across every instance ever spawned.
func (d *rangeDriver) countFlow(f int) uint64 {
	key := mbtest.FlowN(f)
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, l := range d.logics {
		total += l.Count(key)
	}
	return total
}

// sumCounts totals per-flow counts over every logic ever spawned (spawn
// order is irrelevant to a sum).
func (d *rangeDriver) sumCounts() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum uint64
	for _, l := range d.logics {
		sum += l.SumCounts()
	}
	return sum
}

func (d *rangeDriver) drainAll(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	rts := make(map[string]*mbox.Runtime, len(d.rts))
	for n, rt := range d.rts {
		rts[n] = rt
	}
	d.mu.Unlock()
	for name, rt := range rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
}

func (d *rangeDriver) closeAll() {
	d.mu.Lock()
	rts := d.rts
	d.rts = map[string]*mbox.Runtime{}
	d.mu.Unlock()
	for _, rt := range rts {
		rt.Close()
	}
}

// sheds is one runtime's ingress sheds, packets and replays.
func sheds(rt *mbox.Runtime) uint64 {
	rs := rt.RingStats()
	return rs.DroppedPackets + rs.DroppedReplays
}

// ringDrops totals ingress sheds across every runtime, retired ones
// included.
func (d *rangeDriver) ringDrops() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := d.retiredDrops
	for _, rt := range d.rts {
		total += sheds(rt)
	}
	return total
}

// chunkDump renders a logic's per-flow state the way the southbound wire
// does — one ChunkBytes blob per flow, count big-endian in front — in flow
// order, so two logics with identical state dump identical bytes.
func chunkDump(l *mbtest.CounterLogic) []byte {
	var out []byte
	for f := 0; f < nFlows; f++ {
		b := make([]byte, l.ChunkBytes)
		binary.BigEndian.PutUint64(b, l.Count(mbtest.FlowN(f)))
		out = append(out, b...)
	}
	return out
}

// schedule builds the deterministic heavy-tailed injection order: flow
// popularity falls off as 1/(1+rank), with ranks assigned by bit-reversal so
// every aligned half of the flowspace carries a near-equal share of the load
// — a prefix split therefore halves a member's traffic, which is what makes
// scale-out effective against a skewed crowd. The order is shuffled by a
// fixed LCG, so interleaving is adversarial but deterministic.
func schedule(perFlowTotal *[nFlows]int) []int {
	var sched []int
	for f := 0; f < nFlows; f++ {
		rank := int(bits.Reverse8(uint8(f))) >> (8 - bits.TrailingZeros(nFlows))
		reps := 1 + 96/(1+rank)
		perFlowTotal[f] = reps
		for i := 0; i < reps; i++ {
			sched = append(sched, f)
		}
	}
	// Fixed LCG Fisher-Yates: deterministic interleaving across flows.
	seed := uint64(0x9e3779b97f4a7c15)
	for i := len(sched) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed % uint64(i+1))
		sched[i], sched[j] = sched[j], sched[i]
	}
	return sched
}

// TestCloneMergeRoundTripEquivalence is the round-trip equivalence bed:
// preload a flowspace, inject a deterministic workload while the group
// scales out (CloneSupport + split MoveInternal) mid-stream and scales back
// in (MoveInternal + MergeInternal) mid-stream, and require the final
// per-flow state to be byte-identical to a never-scaled control run and
// exactly preload+injected per flow. Shared counters are excluded by
// design: CloneSupport copies the running totals and MergeInternal sums
// them back, so the shared baseline legitimately double-counts.
func TestCloneMergeRoundTripEquivalence(t *testing.T) {
	cl := core.NewController(core.Options{QuietPeriod: 50 * time.Millisecond})
	defer cl.Close()
	tr := sbi.NewMemTransport()
	if err := cl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}

	drv := newRangeDriver(t, tr, false, 0, 0)
	defer drv.closeAll()
	seed := drv.seed("m0", nFlows)
	if err := cl.WaitForMB("m0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	src := NewClusterSource(cl)
	act := NewClusterActuator(cl, src, drv)
	act.Seed("g", seed)

	// The never-scaled control: same preload, same workload, one instance.
	control := mbtest.NewCounterLogic(0)
	control.Preload(nFlows)
	controlRT := mbox.New("control", control, mbox.Options{})
	defer controlRT.Close()

	var perFlow [nFlows]int
	sched := schedule(&perFlow)
	third := len(sched) / 3

	var progress atomic.Int64
	var inj sync.WaitGroup
	inj.Add(1)
	go func() {
		defer inj.Done()
		for i, f := range sched {
			drv.inject(f)
			controlRT.HandlePacket(mbtest.PacketForFlow(f))
			progress.Store(int64(i + 1))
			if i%64 == 63 {
				runtime.Gosched()
			}
		}
	}()
	waitProgress := func(n int) {
		deadline := time.Now().Add(30 * time.Second)
		for progress.Load() < int64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("injector stalled at %d/%d", progress.Load(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Scale out while the middle third is in flight, back in while the
	// last third is.
	waitProgress(third)
	if err := act.ScaleOut("g", "m0"); err != nil {
		t.Fatalf("scale-out under traffic: %v", err)
	}
	if got := len(act.Members("g")); got != 2 {
		t.Fatalf("members after scale-out = %d, want 2", got)
	}
	waitProgress(2 * third)
	if err := act.ScaleIn("g"); err != nil {
		t.Fatalf("scale-in under traffic: %v", err)
	}
	inj.Wait()

	if got := len(act.Members("g")); got != 1 {
		t.Fatalf("members after round trip = %d, want 1", got)
	}
	drv.drainAll(t)
	if !controlRT.Drain(10 * time.Second) {
		t.Fatal("control did not drain")
	}
	if !cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	drv.drainAll(t)
	if got := cl.LiveTxns(); got != 0 {
		t.Fatalf("%d transactions leaked", got)
	}
	if got := drv.ringDrops(); got != 0 {
		t.Fatalf("%d ring drops during round trip", got)
	}

	// Exactness: every flow holds exactly preload (1) + injected, and the
	// survivor's whole per-flow image matches the control run byte for
	// byte.
	final := drv.logics["m0"]
	for f := 0; f < nFlows; f++ {
		want := uint64(1 + perFlow[f])
		if got := final.Count(mbtest.FlowN(f)); got != want {
			t.Fatalf("flow %d: count %d, want %d", f, got, want)
		}
	}
	if got, want := chunkDump(final), chunkDump(control); !bytes.Equal(got, want) {
		t.Fatal("survivor state differs from never-scaled control run")
	}
	if got := final.Flows(); got != nFlows {
		t.Fatalf("survivor holds %d flows, want %d", got, nFlows)
	}
	// The retired clone gave everything back: its logic (kept by the
	// driver after retirement) must be empty, or the byte-identical check
	// above passed only because state was duplicated rather than moved.
	if got := drv.logics["g-1"].Flows(); got != 0 {
		t.Fatalf("retired clone still holds %d flows", got)
	}
}

// TestFlashCrowd closes the loop the paper leaves to the operator (it scales
// instances by hand and measures the data-plane cost of one move, Figures
// 7/10): a heavy-tailed workload ramps warm -> peak -> cool through the
// deadline pacer against a group whose per-packet service time is
// latency-bound, once with the Stratos-style elasticity loop free to clone
// and merge instances while the crowd arrives, once on the frozen fleet.
//
// The loop-on run must finish with zero ring drops, exact per-flow
// conservation across every instance that ever existed (retired clones
// included), at least one scale-out AND one scale-in, no actuator error and
// the controller's p99 move latency inside the SLO. The loop-off run rides
// the identical ramp and must demonstrate the crowd was real: the frozen
// instance has to shed, and its sheds must account exactly for the per-flow
// shortfall.
func TestFlashCrowd(t *testing.T) {
	t.Run("loop=on", func(t *testing.T) { flashCrowd(t, true) })
	t.Run("loop=off", func(t *testing.T) { flashCrowd(t, false) })
}

func flashCrowd(t *testing.T, loopOn bool) {
	const (
		// The per-packet wait caps one instance near 1/perPacket pps (host
		// timer granularity); the peak is roughly 2.3x that, so the frozen
		// fleet must overflow its ring while three or four members absorb it.
		perPacket = time.Millisecond
		queueSize = 512
		slo       = 1500 * time.Millisecond // bound on the p99 move latency
	)
	phases := []struct {
		rate int
		dur  time.Duration
	}{
		{300, 300 * time.Millisecond},   // warm
		{2000, 1600 * time.Millisecond}, // peak
		{200, 1200 * time.Millisecond},  // cool
	}

	cl := core.NewController(core.Options{QuietPeriod: 50 * time.Millisecond})
	defer cl.Close()
	tr := sbi.NewMemTransport()
	if err := cl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}
	drv := newRangeDriver(t, tr, false, perPacket, queueSize)
	defer drv.closeAll()
	seed := drv.seed("fc0", nFlows)
	if err := cl.WaitForMB("fc0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	src := NewClusterSource(cl)
	act := NewClusterActuator(cl, src, drv)
	act.Seed("fc", seed)

	var loop *Loop
	if loopOn {
		loop = New(Config{
			Interval:     20 * time.Millisecond,
			HighUtil:     0.25,
			LowRate:      120,
			HighWindows:  2,
			LowWindows:   3,
			Cooldown:     150 * time.Millisecond,
			MaxInstances: 4,
		}, src, act)
		loop.Start()
		defer loop.Close()
	}

	// One sequence counter spans the phases so the heavy-tailed schedule
	// never restarts mid-run.
	var perFlow [nFlows]int
	sched := schedule(&perFlow)
	var injected [nFlows]uint64
	seq := 0
	send := func(int) {
		f := sched[seq%len(sched)]
		seq++
		injected[f]++
		drv.inject(f)
	}
	for _, ph := range phases {
		stop := make(chan struct{})
		timer := time.AfterFunc(ph.dur, func() { close(stop) })
		mbtest.Pace(ph.rate, stop, send)
		timer.Stop()
	}

	var totals Totals
	if loopOn {
		// Traffic is gone, so every member reads cold; the loop must now
		// retrace its own splits back down to the single seed.
		deadline := time.Now().Add(20 * time.Second)
		for len(act.Members("fc")) > 1 {
			if time.Now().After(deadline) {
				t.Fatalf("fleet never converged back to 1 member (at %d)", len(act.Members("fc")))
			}
			time.Sleep(10 * time.Millisecond)
		}
		loop.Close()
		totals = loop.Totals()
	}
	drv.drainAll(t)
	if !cl.WaitTxns(30 * time.Second) {
		t.Fatalf("transactions never settled (%d live)", cl.LiveTxns())
	}

	drops := drv.ringDrops()
	move, _, _ := cl.OpLatencies()
	p99Move := move.Quantile(0.99)
	var totalInjected, totalCounted uint64
	for f := 0; f < nFlows; f++ {
		totalInjected += injected[f]
		got := drv.countFlow(f)
		totalCounted += got
		if loopOn && got != 1+injected[f] {
			t.Fatalf("flow %d: counted %d across all instances, want %d (preload 1 + injected %d)",
				f, got, 1+injected[f], injected[f])
		}
	}
	t.Logf("injected %d, drops %d, scale-outs %d, scale-ins %d, p99 move %v",
		totalInjected, drops, totals.ScaleOuts, totals.ScaleIns, p99Move)

	if !loopOn {
		if drops == 0 {
			t.Fatal("the frozen fleet shed nothing — the crowd was not a crowd")
		}
		// Every injected packet was either counted or shed; the identity
		// failing would mean loss the ring never admitted to.
		if totalCounted+drops != nFlows+totalInjected {
			t.Fatalf("conservation identity broken: counted %d + drops %d != preload %d + injected %d",
				totalCounted, drops, nFlows, totalInjected)
		}
		return
	}
	if drops != 0 {
		t.Errorf("loop-on run shed %d packets", drops)
	}
	if totals.ScaleOuts < 1 || totals.ScaleIns < 1 {
		t.Errorf("fleet never resized: %d scale-outs, %d scale-ins", totals.ScaleOuts, totals.ScaleIns)
	}
	if totals.Errors != 0 {
		t.Errorf("%d actuator errors during the ramp", totals.Errors)
	}
	if p99Move > slo {
		t.Errorf("p99 move %v blew the %v SLO", p99Move, slo)
	}
}
