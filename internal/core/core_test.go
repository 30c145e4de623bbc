package core_test

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/faults"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/mbox/monitor"
	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// rig is a controller with two counter middleboxes attached over an
// in-memory transport.
type rig struct {
	ctrl     *core.Controller
	tr       *sbi.MemTransport
	src, dst *mbtest.CounterLogic
	srcRT    *mbox.Runtime
	dstRT    *mbox.Runtime
}

func newRig(t *testing.T, opts core.Options) *rig {
	t.Helper()
	if opts.QuietPeriod == 0 {
		opts.QuietPeriod = 60 * time.Millisecond
	}
	r := &rig{
		ctrl: core.NewController(opts),
		tr:   sbi.NewMemTransport(),
		src:  mbtest.NewCounterLogic(16),
		dst:  mbtest.NewCounterLogic(16),
	}
	if err := r.ctrl.Serve(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ctrl.Close)
	r.srcRT = r.attach(t, "src", r.src)
	r.dstRT = r.attach(t, "dst", r.dst)
	return r
}

func (r *rig) attach(t *testing.T, name string, logic mbox.Logic) *mbox.Runtime {
	t.Helper()
	rt := mbox.New(name, logic, mbox.Options{})
	t.Cleanup(rt.Close)
	if err := rt.Connect(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WaitForMB(name, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRegistrationAndWaitForMB(t *testing.T) {
	r := newRig(t, core.Options{})
	names := r.ctrl.Middleboxes()
	if len(names) != 2 {
		t.Fatalf("middleboxes: %v", names)
	}
	if err := r.ctrl.WaitForMB("ghost", 30*time.Millisecond); err == nil {
		t.Fatal("WaitForMB for absent MB should time out")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	r := newRig(t, core.Options{})
	logic := mbtest.NewCounterLogic(16)
	rt := mbox.New("src", logic, mbox.Options{}) // name collision
	defer rt.Close()
	if err := rt.Connect(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	// The controller closes the duplicate connection; the original src
	// must remain reachable.
	time.Sleep(20 * time.Millisecond)
	if _, err := r.ctrl.Stats("src", packet.MatchAll); err != nil {
		t.Fatalf("original registration broken: %v", err)
	}
}

func TestConfigRoundTripAndClone(t *testing.T) {
	r := newRig(t, core.Options{})
	if err := r.ctrl.WriteConfig("src", "rules/0", []string{"alert tcp any -> any 80"}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WriteConfig("src", "params/window", []string{"5s"}); err != nil {
		t.Fatal(err)
	}
	entries, err := r.ctrl.ReadConfig("src", "*")
	if err != nil || len(entries) != 2 {
		t.Fatalf("read: %v %v", entries, err)
	}
	// Step 1 of the paper's control applications: clone configuration.
	if err := r.ctrl.CloneConfig("src", "dst"); err != nil {
		t.Fatal(err)
	}
	if !r.src.Config().Equal(r.dst.Config()) {
		t.Fatal("cloned config differs")
	}
	if err := r.ctrl.DelConfig("src", "rules/0"); err != nil {
		t.Fatal(err)
	}
	if r.src.Config().Equal(r.dst.Config()) {
		t.Fatal("delete did not diverge configs")
	}
}

func TestStats(t *testing.T) {
	r := newRig(t, core.Options{})
	r.src.Preload(7)
	s, err := r.ctrl.Stats("src", packet.MatchAll)
	if err != nil {
		t.Fatal(err)
	}
	if s.SupportPerflowChunks != 7 {
		t.Fatalf("stats: %+v", s)
	}
	if _, err := r.ctrl.Stats("ghost", packet.MatchAll); err == nil {
		t.Fatal("stats on unknown MB should fail")
	}
}

func TestMoveInternalBasic(t *testing.T) {
	r := newRig(t, core.Options{})
	r.src.Preload(100)
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	if r.dst.Flows() != 100 || r.dst.SumCounts() != 100 {
		t.Fatalf("dst flows=%d sum=%d", r.dst.Flows(), r.dst.SumCounts())
	}
	// After the quiet period the controller deletes the source state.
	if !r.ctrl.WaitTxns(5 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	if r.src.Flows() != 0 {
		t.Fatalf("source still holds %d flows after move completion", r.src.Flows())
	}
	if r.srcRT.MarkedKeys() != 0 {
		t.Fatalf("source marks remain: %d", r.srcRT.MarkedKeys())
	}
	m := r.ctrl.Metrics()
	if m.ChunksMoved != 100 || m.MovesStarted != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestMoveInternalSubset(t *testing.T) {
	r := newRig(t, core.Options{})
	r.src.Preload(50)                                      // flows 10.0.0.0..10.0.0.49
	m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/28]") // first 16 flows
	if err := r.ctrl.MoveInternal("src", "dst", m); err != nil {
		t.Fatal(err)
	}
	if r.dst.Flows() != 16 {
		t.Fatalf("dst flows=%d, want 16", r.dst.Flows())
	}
	if !r.ctrl.WaitTxns(5 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	if r.src.Flows() != 34 {
		t.Fatalf("src flows=%d, want 34", r.src.Flows())
	}
}

// holdFirstPut is a counter middlebox whose first per-flow put signals held
// and waits for release. Under PutWorkers 1 a get's credit window is one
// frame, so while the put waits the source's get has sent its first frame
// and waits for credit, holding no lock: that frame's keys are marked and
// still the source's.
type holdFirstPut struct {
	*mbtest.CounterLogic
	once          sync.Once
	held, release chan struct{}
}

func (l *holdFirstPut) PutPerflow(class state.Class, c state.Chunk) error {
	l.once.Do(func() {
		close(l.held)
		<-l.release
	})
	return l.CounterLogic.PutPerflow(class, c)
}

// TestMoveAtomicityUnderTraffic is the core correctness property of the
// paper (§4.2.1): packets keep flowing to the source during a move, and no
// state update may be lost or double-applied. Every packet increments its
// flow's counter exactly once somewhere; at the end the destination must
// hold exactly one increment per packet. The move is held after its first
// frame, and traffic to every flow — that frame's exported keys among
// them — lands in the hold, so the window between a key's export and the
// move's end always carries updates that only a reprocess event can carry.
func TestMoveAtomicityUnderTraffic(t *testing.T) {
	r := newRig(t, core.Options{QuietPeriod: 80 * time.Millisecond, PutWorkers: 1})
	const flows = 40
	r.src.Preload(flows)
	dst := &holdFirstPut{CounterLogic: mbtest.NewCounterLogic(16), held: make(chan struct{}), release: make(chan struct{})}
	dstRT := r.attach(t, "held", dst)
	t.Cleanup(func() {
		select {
		case <-dst.release:
		default:
			close(dst.release)
		}
	})

	stop := make(chan struct{})
	var sent int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.srcRT.HandlePacket(mbtest.PacketForFlow(i % flows))
			sent++
			i++
			if i%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	time.Sleep(5 * time.Millisecond) // let some traffic land first
	moved := make(chan error, 1)
	go func() { moved <- r.ctrl.MoveInternal("src", "held", packet.MatchAll) }()
	select {
	case <-dst.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the move's first put never arrived")
	}
	close(stop)
	wg.Wait()
	raised := r.srcRT.Metrics().EventsRaised
	const rounds = 3
	for range rounds {
		for i := range flows {
			r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
		}
	}
	sent += rounds * flows
	if !r.srcRT.Drain(10 * time.Second) {
		t.Fatal("source did not drain the held window's traffic")
	}
	inHold := r.srcRT.Metrics().EventsRaised - raised
	close(dst.release)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	// The "routing change": traffic to the source has stopped.
	if !r.srcRT.Drain(10 * time.Second) {
		t.Fatal("source did not drain")
	}
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	if !dstRT.Drain(10 * time.Second) {
		t.Fatal("destination did not drain replays")
	}

	want := uint64(flows + sent) // preloaded counts + one per packet
	got := dst.SumCounts()
	if got != want {
		t.Fatalf("atomicity violated: dst sum=%d want=%d (sent=%d, events raised=%d, in the hold %d, forwarded=%d)",
			got, want, sent, r.srcRT.Metrics().EventsRaised, inHold, r.ctrl.Metrics().EventsForwarded)
	}
	if inHold == 0 {
		t.Fatal("no packet in the held window hit an exported key")
	}
	if r.src.Flows() != 0 {
		t.Fatalf("src flows remain: %d", r.src.Flows())
	}
}

func TestMoveEventsAreBufferedUntilPutAck(t *testing.T) {
	r := newRig(t, core.Options{QuietPeriod: 80 * time.Millisecond})
	const flows = 20
	r.src.Preload(flows)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i % flows))
				i++
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	// The source's marks outlive MoveInternal by the quiet period, so the
	// traffic keeps raising events: wait for the first forward rather than
	// count on a packet having landed inside a 20-chunk move window.
	for deadline := time.Now().Add(5 * time.Second); r.ctrl.Metrics().EventsForwarded == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.ctrl.WaitTxns(10 * time.Second)
	m := r.ctrl.Metrics()
	if m.EventsForwarded == 0 {
		t.Fatal("no events forwarded during move under traffic")
	}
}

func TestCloneSupportSharedState(t *testing.T) {
	r := newRig(t, core.Options{QuietPeriod: 60 * time.Millisecond})
	for i := 0; i < 25; i++ {
		r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
	}
	r.srcRT.Drain(time.Second)
	if err := r.ctrl.CloneSupport("src", "dst"); err != nil {
		t.Fatal(err)
	}
	if got := r.dst.SharedSupport(); got != 25 {
		t.Fatalf("cloned shared supporting state: %d, want 25", got)
	}
	// Clone must NOT delete or alter the source.
	if got := r.src.SharedSupport(); got != 25 {
		t.Fatalf("source shared state changed: %d", got)
	}
	// Reporting state must not be cloned (double-reporting, §4.1.3).
	if got := r.dst.SharedReport(); got != 0 {
		t.Fatalf("shared reporting state cloned: %d", got)
	}
	if !r.ctrl.WaitTxns(5 * time.Second) {
		t.Fatal("clone transaction did not complete")
	}
}

func TestCloneForwardsEventsUntilQuiet(t *testing.T) {
	r := newRig(t, core.Options{QuietPeriod: 100 * time.Millisecond})
	for i := 0; i < 10; i++ {
		r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
	}
	r.srcRT.Drain(time.Second)
	if err := r.ctrl.CloneSupport("src", "dst"); err != nil {
		t.Fatal(err)
	}
	// Traffic continues at the source during the transaction window; the
	// destination's clone must track it via replayed events.
	for i := 0; i < 15; i++ {
		r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
	}
	r.srcRT.Drain(time.Second)
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("clone transaction did not complete")
	}
	r.dstRT.Drain(time.Second)
	if got := r.dst.SharedSupport(); got != 25 {
		t.Fatalf("clone not kept in sync: dst=%d want 25", got)
	}
	// After the transaction ends, source updates no longer propagate.
	r.srcRT.HandlePacket(mbtest.PacketForFlow(0))
	r.srcRT.Drain(time.Second)
	time.Sleep(20 * time.Millisecond)
	r.dstRT.Drain(time.Second)
	if got := r.dst.SharedSupport(); got != 25 {
		t.Fatalf("events still forwarded after transaction end: dst=%d", got)
	}
}

// TestMergeInternal: a merge sums both shared classes into the destination.
// Traffic at the source during the transaction window reaches the merged
// copy as replayed events, as a clone's does; once the transaction ends it
// no longer does.
func TestMergeInternal(t *testing.T) {
	for _, traffic := range []int{0, 15} {
		t.Run(fmt.Sprintf("traffic=%d", traffic), func(t *testing.T) {
			r := newRig(t, core.Options{QuietPeriod: 100 * time.Millisecond})
			for i := 0; i < 10; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			for i := 0; i < 7; i++ {
				r.dstRT.HandlePacket(mbtest.PacketForFlow(100 + i))
			}
			r.srcRT.Drain(time.Second)
			r.dstRT.Drain(time.Second)
			if err := r.ctrl.MergeInternal("src", "dst"); err != nil {
				t.Fatal(err)
			}
			// A merge returns only once both shared puts are ACKed.
			if got := r.dst.SharedSupport(); got != 17 {
				t.Fatalf("merged shared supporting at return: %d, want 17", got)
			}
			if got := r.dst.SharedReport(); got != 17 {
				t.Fatalf("merged shared reporting at return: %d, want 17", got)
			}
			for i := 0; i < traffic; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			r.srcRT.Drain(time.Second)
			if !r.ctrl.WaitTxns(10 * time.Second) {
				t.Fatal("merge transaction did not complete")
			}
			// The source's state is summed in, and with it every
			// update made during the transaction window.
			r.dstRT.Drain(time.Second)
			want := uint64(17 + traffic)
			if got := r.dst.SharedSupport(); got != want {
				t.Fatalf("merged shared supporting: %d, want %d", got, want)
			}
			if got := r.dst.SharedReport(); got != want {
				t.Fatalf("merged shared reporting: %d, want %d", got, want)
			}
			r.srcRT.HandlePacket(mbtest.PacketForFlow(0))
			r.srcRT.Drain(time.Second)
			time.Sleep(20 * time.Millisecond)
			r.dstRT.Drain(time.Second)
			if got := r.dst.SharedSupport(); got != want {
				t.Fatalf("events still forwarded after transaction end: dst=%d", got)
			}
		})
	}
}

// TestFailedCloneClearsSourceSharedMark: a clone or merge that fails ends
// its transaction at the source, as a failed move does. Here the put fails
// because the destination is a middlebox of another kind, which cannot open
// the source's sealed blob. The source must come out with no shared mark:
// a marked source raises a reprocess event for every packet that touches
// its shared state, and no transaction would ever route them.
func TestFailedCloneClearsSourceSharedMark(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *core.Controller, src, dst string) error
	}{
		{"clone", (*core.Controller).CloneSupport},
		{"merge", (*core.Controller).MergeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, core.Options{QuietPeriod: 40 * time.Millisecond})
			r.attach(t, "mon", monitor.New())
			for i := 0; i < 10; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			r.srcRT.Drain(time.Second)
			err := tc.op(r.ctrl, "src", "mon")
			if err == nil || !strings.Contains(err.Error(), "authentication") {
				t.Fatalf("%s into a monitor: %v, want a sealed-blob refusal", tc.name, err)
			}
			before := r.srcRT.Metrics().EventsRaised
			for i := 0; i < 100; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			r.srcRT.Drain(time.Second)
			if got := r.srcRT.Metrics().EventsRaised - before; got != 0 {
				t.Fatalf("the source raised %d reprocess events for 100 packets after a failed %s", got, tc.name)
			}
			if !r.ctrl.WaitTxns(5 * time.Second) {
				t.Fatalf("transactions did not settle after a failed %s", tc.name)
			}
			if got := r.ctrl.LiveTxns(); got != 0 {
				t.Fatalf("%d transactions leaked", got)
			}
		})
	}
}

// refusingLogic is a counter middlebox that refuses every shared put. The
// first one waits for release, so a test can run traffic at the source while
// a clone or merge into it is in flight.
type refusingLogic struct {
	*mbtest.CounterLogic
	entered, release chan struct{}
	once             sync.Once
}

func (l *refusingLogic) PutShared(state.Class, []byte) error {
	l.once.Do(func() {
		close(l.entered)
		<-l.release
	})
	return fmt.Errorf("shared put refused")
}

// TestRefusedSharedPutForwardsNoEvents: the shared events a source raises
// while a clone or merge is in flight are held until the put is ACKed. If
// the put is refused they are dropped: the destination never got the
// snapshot they update, so its shared state must not move.
func TestRefusedSharedPutForwardsNoEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *core.Controller, src, dst string) error
	}{
		{"clone", (*core.Controller).CloneSupport},
		{"merge", (*core.Controller).MergeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, core.Options{QuietPeriod: 40 * time.Millisecond})
			dst := &refusingLogic{
				CounterLogic: mbtest.NewCounterLogic(16),
				entered:      make(chan struct{}),
				release:      make(chan struct{}),
			}
			dstRT := r.attach(t, "refuser", dst)
			for i := 0; i < 7; i++ {
				dstRT.HandlePacket(mbtest.PacketForFlow(100 + i))
			}
			for i := 0; i < 10; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			r.srcRT.Drain(time.Second)
			dstRT.Drain(time.Second)

			errc := make(chan error, 1)
			go func() { errc <- tc.op(r.ctrl, "src", "refuser") }()
			select {
			case <-dst.entered:
			case err := <-errc:
				t.Fatalf("%s returned before its put reached the destination: %v", tc.name, err)
			}
			// The source is marked: each packet raises a shared event,
			// which the controller buffers behind the outstanding put.
			before := r.ctrl.Metrics().EventsBuffered
			for i := 0; i < 20; i++ {
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i))
			}
			r.srcRT.Drain(time.Second)
			for deadline := time.Now().Add(5 * time.Second); r.ctrl.Metrics().EventsBuffered-before < 20; {
				if time.Now().After(deadline) {
					t.Fatalf("buffered %d of 20 shared events", r.ctrl.Metrics().EventsBuffered-before)
				}
				time.Sleep(time.Millisecond)
			}
			close(dst.release)
			if err := <-errc; err == nil || !strings.Contains(err.Error(), "refused") {
				t.Fatalf("%s into a refusing destination: %v, want the refusal", tc.name, err)
			}
			if !r.ctrl.WaitTxns(5 * time.Second) {
				t.Fatalf("transactions did not settle after a refused %s", tc.name)
			}
			time.Sleep(20 * time.Millisecond)
			dstRT.Drain(time.Second)
			if got := dst.SharedSupport(); got != 7 {
				t.Fatalf("destination shared supporting after a refused %s: %d, want 7", tc.name, got)
			}
			if got := dst.SharedReport(); got != 7 {
				t.Fatalf("destination shared reporting after a refused %s: %d, want 7", tc.name, got)
			}
		})
	}
}

func TestConcurrentMoves(t *testing.T) {
	opts := core.Options{QuietPeriod: 60 * time.Millisecond}
	r := newRig(t, opts)
	// Additional MB pairs.
	logics := make([]*mbtest.CounterLogic, 6)
	for i := range logics {
		logics[i] = mbtest.NewCounterLogic(16)
		r.attach(t, "mb"+string(rune('0'+i)), logics[i])
	}
	for i := 0; i < 3; i++ {
		logics[i*2].Preload(200)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.ctrl.MoveInternal("mb"+string(rune('0'+i*2)), "mb"+string(rune('0'+i*2+1)), packet.MatchAll)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if got := logics[i*2+1].Flows(); got != 200 {
			t.Fatalf("pair %d: dst flows=%d", i, got)
		}
	}
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transactions did not complete")
	}
}

// TestShardEquivalence runs the same move-under-traffic scenario on a
// one-shard router and on an eight-shard one, and requires the identical
// externally visible outcome:
// every packet counted exactly once at the destination, the source emptied.
func TestShardEquivalence(t *testing.T) {
	const flows = 60
	run := func(t *testing.T, shards int) (sum uint64, sent int) {
		r := newRig(t, core.Options{QuietPeriod: 80 * time.Millisecond, Shards: shards})
		r.src.Preload(flows)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.srcRT.HandlePacket(mbtest.PacketForFlow(i % flows))
				sent++
				i++
				if i%50 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
		time.Sleep(5 * time.Millisecond)
		if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if !r.srcRT.Drain(10*time.Second) || !r.ctrl.WaitTxns(10*time.Second) || !r.dstRT.Drain(10*time.Second) {
			t.Fatal("scenario did not settle")
		}
		if r.src.Flows() != 0 {
			t.Fatalf("shards=%d: src flows remain: %d", shards, r.src.Flows())
		}
		return r.dst.SumCounts(), sent
	}
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sum, sent := run(t, shards)
			if want := uint64(flows + sent); sum != want {
				t.Fatalf("shards=%d: dst sum=%d want=%d", shards, sum, want)
			}
		})
	}
}

// TestConcurrentMovesManyKeys drives several simultaneous moves, each over
// many flow keys with live traffic, through the sharded router — the
// concurrent path the Figure 10(b) sweep measures, as a correctness check
// (run under -race in CI).
func TestConcurrentMovesManyKeys(t *testing.T) {
	const pairs, flows = 4, 150
	// The quiet period is the conservation margin: if a source's packet
	// worker is starved past it during the marked window (zero events →
	// "quiet" → del clears the marks), later packets legitimately count
	// into post-move source state and the sum check fails. Under -race on
	// one CPU with 8 runtimes' worth of goroutines, 80 ms is inside the
	// scheduler's tail; 250 ms is not (traffic stops before the dels, so
	// the widening costs one period of wall clock, not per-move time).
	r := newRig(t, core.Options{QuietPeriod: 250 * time.Millisecond, Shards: 8})
	logics := make([]*mbtest.CounterLogic, 2*pairs)
	rts := make([]*mbox.Runtime, 2*pairs)
	for i := range logics {
		logics[i] = mbtest.NewCounterLogic(16)
		rts[i] = r.attach(t, fmt.Sprintf("mb%d", i), logics[i])
	}
	for i := 0; i < pairs; i++ {
		logics[2*i].Preload(flows)
	}

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for i := 0; i < pairs; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rts[2*i].HandlePacket(mbtest.PacketForFlow(n % flows))
				n++
				if n%40 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i)
	}

	var moves sync.WaitGroup
	errs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			errs[i] = r.ctrl.MoveInternal(fmt.Sprintf("mb%d", 2*i), fmt.Sprintf("mb%d", 2*i+1), packet.MatchAll)
		}(i)
	}
	moves.Wait()
	close(stop)
	traffic.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	for i := 0; i < pairs; i++ {
		if !rts[2*i].Drain(10 * time.Second) {
			t.Fatalf("source %d did not drain", i)
		}
	}
	if !r.ctrl.WaitTxns(15 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	for i := 0; i < pairs; i++ {
		if !rts[2*i+1].Drain(10 * time.Second) {
			t.Fatalf("destination %d did not drain replays", i)
		}
		srcM, dstM := rts[2*i].Metrics(), rts[2*i+1].Metrics()
		// Conservation is over ACCEPTED packets: the ingress ring sheds
		// live deliveries under sustained overload by design (a loaded
		// middlebox drops; -race on one CPU reaches that regime), and a
		// shed packet touched no state anywhere. Replays, by contrast,
		// carry state another instance already exported — shedding one
		// IS loss, so it must never happen here.
		if srcM.DroppedReplays != 0 || dstM.DroppedReplays != 0 {
			t.Fatalf("pair %d: replay sheds src=%d dst=%d", i, srcM.DroppedReplays, dstM.DroppedReplays)
		}
		want := uint64(flows) + srcM.Processed
		if got := logics[2*i+1].SumCounts(); got != want {
			t.Fatalf("pair %d: dst sum=%d want=%d srcM=%+v dstM=%+v", i, got, want, srcM, dstM)
		}
		if srcM.Processed == 0 {
			t.Fatalf("pair %d: source accepted no traffic; the workload exercised nothing", i)
		}
		if got := logics[2*i].Flows(); got != 0 {
			t.Fatalf("pair %d: src flows remain: %d", i, got)
		}
	}
}

// stallGetLogic wraps a CounterLogic so its first per-flow export signals
// the test and then blocks until released — a deterministic way to catch a
// move with its get stream in flight. The runtime takes the table's lock
// through the logic once to collect each get's keys, then before each key it
// exports; Lock holds every call but the first until released, before the
// lock is held, so the move's supporting get stalls before its first key.
type stallGetLogic struct {
	*mbtest.CounterLogic
	started chan struct{}
	release chan struct{}
	once    sync.Once
	locks   atomic.Int32
}

func (l *stallGetLogic) Lock() {
	if l.locks.Add(1) > 1 {
		l.once.Do(func() { close(l.started) })
		<-l.release
	}
	l.CounterLogic.Lock()
}

// TestDisconnectErrorIsPropagated: calls outstanding when a middlebox drops
// must report the disconnect reason, not a generic failure (the seed
// discarded failAll's error). The source's get stream is stalled on its
// first chunk, so the disconnect deterministically lands mid-call.
func TestDisconnectErrorIsPropagated(t *testing.T) {
	r := newRig(t, core.Options{})
	stalled := &stallGetLogic{
		CounterLogic: mbtest.NewCounterLogic(16),
		started:      make(chan struct{}),
		release:      make(chan struct{}),
	}
	stalled.Preload(50)
	rt := r.attach(t, "stall", stalled)
	errCh := make(chan error, 1)
	go func() { errCh <- r.ctrl.MoveInternal("stall", "dst", packet.MatchAll) }()
	<-stalled.started
	go rt.Close() // Close waits for the stalled worker; release it after
	defer close(stalled.release)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("move across a disconnect succeeded")
		}
		if !strings.Contains(err.Error(), "disconnected") {
			t.Fatalf("error does not carry the disconnect reason: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("move did not fail after disconnect")
	}
}

// TestOppositeMovesDoNotDeadlock runs large concurrent moves around a ring
// of MBs: two in opposite directions between one pair, and a three-MB cycle
// (A→B, B→C, C→A), each at the default window and at the smallest one
// (PutWorkers 1: one frame per get in flight). Every MB's serve loop then
// both streams its own get and installs another move's puts, whose ACKs are
// the credit some other get waits for. A get that waited for credit on the
// serve loop would stop those puts, and the ring would deadlock until
// CallTimeout.
func TestOppositeMovesDoNotDeadlock(t *testing.T) {
	const (
		flows       = 600 // enough to exceed any in-flight put window
		callTimeout = 8 * time.Second
	)
	for _, tc := range []struct {
		name       string
		mbs        int
		putWorkers int
	}{
		{"pair", 2, 0},
		{"cycle", 3, 0},
		{"pair-window1", 2, 1},
		{"cycle-window1", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, core.Options{QuietPeriod: 60 * time.Millisecond, Shards: 4, CallTimeout: callTimeout, PutWorkers: tc.putWorkers})
			names := []string{"src", "dst", "third"}[:tc.mbs]
			logics := []*mbtest.CounterLogic{r.src, r.dst, mbtest.NewCounterLogic(16)}[:tc.mbs]
			rts := []*mbox.Runtime{r.srcRT, r.dstRT}
			if tc.mbs == 3 {
				rts = append(rts, r.attach(t, names[2], logics[2]))
			}
			// MB i holds 10.i.x.x and moves it to MB i+1.
			for i, rt := range rts {
				for j := 0; j < flows; j++ {
					rt.HandlePacket(mbtest.PacketForFlow(i<<16 + j))
				}
				if !rt.Drain(5 * time.Second) {
					t.Fatal("preload did not drain")
				}
			}
			errs := make(chan error, tc.mbs)
			for i := range rts {
				m, err := packet.ParseFieldMatch(fmt.Sprintf("[nw_src=10.%d.0.0/16]", i))
				if err != nil {
					t.Fatal(err)
				}
				go func() { errs <- r.ctrl.MoveInternal(names[i], names[(i+1)%tc.mbs], m) }()
			}
			deadline := time.After(callTimeout)
			for range rts {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatalf("concurrent move failed: %v", err)
					}
				case <-deadline:
					t.Fatal("concurrent moves deadlocked")
				}
			}
			if !r.ctrl.WaitTxns(10 * time.Second) {
				t.Fatal("transactions did not complete")
			}
			// The populations rotated: each MB now holds its neighbour's flows.
			for i, l := range logics {
				if l.Flows() != flows {
					t.Fatalf("%s holds %d flows after the moves, want %d", names[i], l.Flows(), flows)
				}
			}
		})
	}
}

func TestMoveErrors(t *testing.T) {
	r := newRig(t, core.Options{})
	if err := r.ctrl.MoveInternal("ghost", "dst", packet.MatchAll); err == nil {
		t.Fatal("move from unknown MB should fail")
	}
	if err := r.ctrl.MoveInternal("src", "ghost", packet.MatchAll); err == nil {
		t.Fatal("move to unknown MB should fail")
	}
	// Granularity error propagates from the source MB.
	m, _ := packet.ParseFieldMatch("[tp_dst=80]")
	if err := r.ctrl.MoveInternal("src", "dst", m); err == nil {
		t.Fatal("finer-than-keying move should fail")
	}
}

// TestMoveRidesOutLocalReconnect moves state out of a middlebox whose
// connection was cut and that is still backing off before its redial. The
// directory names this controller as its owner, so the move waits for the
// reconnect (find-retry) instead of failing at once or asking itself to
// release the middlebox.
func TestMoveRidesOutLocalReconnect(t *testing.T) {
	r := newRig(t, core.Options{})
	ft := faults.New(r.tr, faults.Options{})
	logic := mbtest.NewCounterLogic(16)
	logic.Preload(100)
	rt := mbox.New("flap", logic, mbox.Options{Reconnect: true, ReconnectMin: 300 * time.Millisecond})
	t.Cleanup(rt.Close)
	if err := rt.Connect(ft, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WaitForMB("flap", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if ft.KillAll() == 0 {
		t.Fatal("no connection to cut")
	}
	for deadline := time.Now().Add(2 * time.Second); slices.Contains(r.ctrl.Middleboxes(), "flap"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("cut middlebox never deregistered")
		}
	}
	if err := r.ctrl.MoveInternal("flap", "dst", packet.MatchAll); err != nil {
		t.Fatalf("move during the reconnect: %v", err)
	}
	if r.dst.Flows() != 100 || r.dst.SumCounts() != 100 {
		t.Fatalf("dst flows=%d sum=%d, want 100/100", r.dst.Flows(), r.dst.SumCounts())
	}
	reg := obs.NewRegistry()
	reg.Register(r.ctrl)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParseSeries(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := series["openmb_directory_miss_retries_total"]; got < 1 {
		t.Fatalf("openmb_directory_miss_retries_total = %v, want >= 1", got)
	}
}

func TestIntrospectionEndToEnd(t *testing.T) {
	r := newRig(t, core.Options{})
	var mu sync.Mutex
	var got []*sbi.Event
	r.ctrl.SubscribeIntrospection(func(mb string, ev *sbi.Event) {
		if mb == "src" {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	})
	if err := r.ctrl.SetEventFilter("src", "counter.", packet.MatchAll, true); err != nil {
		t.Fatal(err)
	}
	r.srcRT.HandlePacket(mbtest.PacketForFlow(1))
	r.srcRT.Drain(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no introspection event delivered")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Code != "counter.flow.seen" {
		t.Fatalf("event: %+v", got[0])
	}
}

func TestMoveWithCompression(t *testing.T) {
	r := newRig(t, core.Options{Compress: true, QuietPeriod: 60 * time.Millisecond})
	r.src.Preload(50)
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	if r.dst.Flows() != 50 || r.dst.SumCounts() != 50 {
		t.Fatalf("compressed move: flows=%d sum=%d", r.dst.Flows(), r.dst.SumCounts())
	}
	r.ctrl.WaitTxns(5 * time.Second)
}

func TestMBDisconnectFailsCalls(t *testing.T) {
	r := newRig(t, core.Options{})
	r.src.Preload(10)
	r.srcRT.Close()
	time.Sleep(20 * time.Millisecond)
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err == nil {
		t.Fatal("move from disconnected MB should fail")
	}
}

func TestMoveEmptyMatchIsFine(t *testing.T) {
	// moveInternal(src, dst, []) with no state present: valid, moves
	// nothing (the scale-down app's first step when no flows exist).
	r := newRig(t, core.Options{QuietPeriod: 40 * time.Millisecond})
	if err := r.ctrl.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	if r.dst.Flows() != 0 {
		t.Fatal("phantom state appeared")
	}
	r.ctrl.WaitTxns(5 * time.Second)
}

func TestEventFilterTTLExpires(t *testing.T) {
	r := newRig(t, core.Options{})
	var mu sync.Mutex
	var got int
	r.ctrl.SubscribeIntrospection(func(mb string, ev *sbi.Event) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	// Enable for a short window only (§4.2.2's overload protection).
	if err := r.ctrl.SetEventFilterFor("src", "counter.", packet.MatchAll, true, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.srcRT.HandlePacket(mbtest.PacketForFlow(1))
	r.srcRT.Drain(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no event within the filter window")
		}
		time.Sleep(time.Millisecond)
	}
	// After the TTL, events stop without any disable call.
	time.Sleep(80 * time.Millisecond)
	r.srcRT.HandlePacket(mbtest.PacketForFlow(1))
	r.srcRT.Drain(time.Second)
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if got != 1 {
		t.Fatalf("events after filter expiry: %d", got)
	}
}

// TestFlowTraceOverNorthbound drives the filtered flow tracer the way an
// operator does, through the controller: arm a one-flow predicate on a
// middlebox, offer matching and non-matching traffic, pull the per-hop
// records back over the southbound dump op, disarm.
func TestFlowTraceOverNorthbound(t *testing.T) {
	r := newRig(t, core.Options{})
	mon := r.attach(t, "mon", monitor.New())
	const offered, flows, traced = 32, 8, 7
	offer := func() {
		t.Helper()
		for i := 0; i < offered; i++ {
			mon.HandlePacket(mbtest.PacketForFlow(i % flows))
		}
		if !mon.Drain(10 * time.Second) {
			t.Fatal("mon did not drain")
		}
	}
	records := func() []string {
		t.Helper()
		recs, err := r.ctrl.FlowTraceRecords("mon")
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	key := mbtest.FlowN(traced)
	match := packet.FieldMatch{
		SrcPrefix:  netip.PrefixFrom(key.SrcIP, key.SrcIP.BitLen()),
		HasDstPort: true,
		DstPort:    key.DstPort,
	}

	// A budget the traffic cannot reach: every hop of every packet of the
	// armed flow is recorded, and nothing of the seven other flows.
	if err := r.ctrl.ArmFlowTrace("mon", match, 64); err != nil {
		t.Fatal(err)
	}
	offer()
	armed := records()
	if len(armed) < offered/flows || len(armed) >= 64 {
		t.Fatalf("%d records for %d matching packets under a budget of 64", len(armed), offered/flows)
	}
	for _, rec := range armed {
		if !strings.HasPrefix(rec, "mon ") || !strings.Contains(rec, key.String()) {
			t.Fatalf("record %q does not name flow %v at mon", rec, key)
		}
	}

	// Disarmed, with budget to spare: matching traffic adds nothing, and
	// the captured session stays retrievable.
	if err := r.ctrl.DisarmFlowTrace("mon"); err != nil {
		t.Fatal(err)
	}
	offer()
	if got := records(); len(got) != len(armed) {
		t.Fatalf("%d records after disarm, %d before", len(got), len(armed))
	}

	// A budget smaller than the matching traffic caps the new session.
	if err := r.ctrl.ArmFlowTrace("mon", match, 5); err != nil {
		t.Fatal(err)
	}
	offer()
	if got := records(); len(got) != 5 {
		t.Fatalf("budget 5, captured %d of the %d hops the traffic offers", len(got), len(armed))
	}

	if err := r.ctrl.ArmFlowTrace("ghost", match, 5); err == nil {
		t.Error("ArmFlowTrace on an unknown middlebox succeeded")
	}
	if _, err := r.ctrl.FlowTraceRecords("ghost"); err == nil {
		t.Error("FlowTraceRecords on an unknown middlebox succeeded")
	}
	if err := r.ctrl.DisarmFlowTrace("ghost"); err == nil {
		t.Error("DisarmFlowTrace on an unknown middlebox succeeded")
	}
}
