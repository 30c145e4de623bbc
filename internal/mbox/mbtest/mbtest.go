// Package mbtest provides a minimal middlebox logic for tests and
// controller benchmarks: a per-flow packet counter with shared counters.
// It doubles as the paper's "dummy MB" (§8.3), which replays synthetic state
// in response to gets and generates events under packet load, letting the
// controller's performance be isolated from real middlebox processing cost.
// Pace is the deadline pacer the paced experiments and tests inject with.
package mbtest

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"time"
	"unsafe"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// CounterLogic counts packets per flow (per-flow supporting state) and
// globally (shared supporting and reporting counters). Chunks are padded to
// ChunkBytes, defaulting to 202 bytes — the dummy-state size the paper uses
// for controller benchmarks.
type CounterLogic struct {
	// ChunkBytes is the exported chunk payload size (min 8).
	ChunkBytes int

	// Table holds the per-flow counts under canonical flow IDs; gets may not
	// constrain the destination. Its lock is the logic's lock.
	mbox.Table[uint64]
	sharedSupport uint64
	sharedReport  uint64
	config        *state.ConfigTree
}

// NewCounterLogic returns a CounterLogic with the given chunk size
// (0 means 202 bytes).
func NewCounterLogic(chunkBytes int) *CounterLogic {
	if chunkBytes == 0 {
		chunkBytes = 202
	}
	if chunkBytes < 8 {
		chunkBytes = 8
	}
	l := &CounterLogic{ChunkBytes: chunkBytes, config: state.NewConfigTree()}
	l.Init("counter", state.Supporting, mbox.CanonicalSrcOnly, (*countCodec)(l))
	return l
}

// Kind implements mbox.Logic.
func (l *CounterLogic) Kind() string { return "counter" }

// ProcessBurst counts each packet per flow and globally, forwards it, and
// logs and announces its flow.
func (l *CounterLogic) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	l.Lock()
	for i, p := range pkts {
		ctx := &ctxs[i]
		id, _ := p.FlowID().Canonical()
		if !ctx.SkipPerflow() {
			n, _ := l.Touch(ctx, id)
			l.Insert(ctx, id, n+1)
		}
		if !ctx.SkipShared() {
			l.sharedSupport++
			l.sharedReport++
			ctx.TouchShared(state.Supporting)
			ctx.TouchShared(state.Reporting)
		}
		ctx.Emit(p)
	}
	l.Unlock()
	for i, p := range pkts {
		id, _ := p.FlowID().Canonical()
		ctxs[i].Log("conn", id.String())
		ctxs[i].RaiseIntrospection("counter.flow.seen", id, nil)
	}
}

// ProcessOne runs p through l as a burst of one on ctx — typically a
// detached mbox.NewBenchContext — for unit tests and benchmarks that drive a
// logic without a runtime.
func ProcessOne(l mbox.Logic, ctx *mbox.Context, p *packet.Packet) {
	l.ProcessBurst(unsafe.Slice(ctx, 1), []*packet.Packet{p})
}

func (l *CounterLogic) encode(v uint64) []byte {
	return (*countCodec)(l).Append(nil, v)
}

// countCodec is the counter's per-flow Codec: the count, padded to
// ChunkBytes. Any blob of at least 8 bytes decodes.
type countCodec CounterLogic

func (c *countCodec) Append(b []byte, v uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, v)
	return append(b, make([]byte, c.ChunkBytes-8)...)
}

func (*countCodec) Decode(_ packet.FlowID, b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("counter: short blob (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// Put sums the incoming count into any existing record.
func (*countCodec) Put(_ packet.FlowID, in, cur uint64, _ bool) (uint64, error) {
	return cur + in, nil
}

func (*countCodec) Drop(packet.FlowID, uint64) {}

// GetShared exports the shared counter of the class.
func (l *CounterLogic) GetShared(class state.Class, mark func()) ([]byte, error) {
	l.Lock()
	defer l.Unlock()
	mark() // atomic with the snapshot: see mbox.Logic
	switch class {
	case state.Supporting:
		return l.encode(l.sharedSupport), nil
	case state.Reporting:
		return l.encode(l.sharedReport), nil
	}
	return nil, mbox.ErrNoSharedState
}

// PutShared merges (sums) the incoming counter.
func (l *CounterLogic) PutShared(class state.Class, blob []byte) error {
	if len(blob) < 8 {
		return fmt.Errorf("counter: short shared blob")
	}
	v := binary.BigEndian.Uint64(blob)
	l.Lock()
	defer l.Unlock()
	switch class {
	case state.Supporting:
		l.sharedSupport += v
	case state.Reporting:
		l.sharedReport += v
	default:
		return mbox.ErrNoSharedState
	}
	return nil
}

// Stats implements mbox.Logic.
func (l *CounterLogic) Stats(m packet.FieldMatch) sbi.StatsReply {
	s := l.Table.Stats(m)
	s.SupportSharedBytes = l.ChunkBytes
	s.ReportSharedBytes = l.ChunkBytes
	return s
}

// Config implements mbox.Logic.
func (l *CounterLogic) Config() *state.ConfigTree { return l.config }

// Count returns the per-flow count for key (canonicalized).
func (l *CounterLogic) Count(key packet.FlowKey) uint64 {
	l.Lock()
	defer l.Unlock()
	id, _ := key.Canonical().ID()
	n, _ := l.Get(id)
	return n
}

// SharedSupport returns the shared supporting counter.
func (l *CounterLogic) SharedSupport() uint64 {
	l.Lock()
	defer l.Unlock()
	return l.sharedSupport
}

// SharedReport returns the shared reporting counter.
func (l *CounterLogic) SharedReport() uint64 {
	l.Lock()
	defer l.Unlock()
	return l.sharedReport
}

// Flows returns the number of per-flow records.
func (l *CounterLogic) Flows() int {
	l.Lock()
	defer l.Unlock()
	return l.Len()
}

// SumCounts returns the sum of all per-flow counts.
func (l *CounterLogic) SumCounts() uint64 {
	l.Lock()
	defer l.Unlock()
	var sum uint64
	for _, v := range l.All() {
		sum += v
	}
	return sum
}

// Preload installs n per-flow records with count 1, returning their keys.
// Keys are synthetic flows inside 10.0.0.0/8, all destined to port 80 —
// the dummy state the controller benchmarks move around.
func (l *CounterLogic) Preload(n int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	ctx := mbox.NewBenchContext()
	l.Lock()
	defer l.Unlock()
	for i := 0; i < n; i++ {
		k := FlowN(i)
		id, _ := k.Canonical().ID()
		l.Insert(ctx, id, 1)
		keys[i] = k
	}
	return keys
}

// FlowN returns the i-th synthetic flow key used by Preload.
func FlowN(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
	}
}

// PacketForFlow builds a packet belonging to FlowN(i).
func PacketForFlow(i int) *packet.Packet {
	k := FlowN(i)
	return &packet.Packet{
		SrcIP: k.SrcIP, DstIP: k.DstIP, Proto: k.Proto,
		SrcPort: k.SrcPort, DstPort: k.DstPort,
		Payload: []byte("dummy-event-payload-128-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	}
}

// paceSpinWindow is how close to a packet deadline the pacer switches from
// sleeping to yielding: within the window, timer granularity (~1 ms on a
// loaded box) would overshoot the deadline, so the pacer spins on the clock
// instead — cooperatively (runtime.Gosched per iteration), because on a
// single-CPU host a hard busy-wait would starve the consumer it is pacing.
const paceSpinWindow = 100 * time.Microsecond

// Pace runs send at the given packet rate until stop closes, following an
// absolute-deadline schedule: packet i is due at start + i/rate, and the
// loop sleeps until just before the next deadline, then spins to it (a
// hybrid sleep/spin pacer in the timerfd-plus-busy-poll style). Sleeping a
// fixed interval per wakeup and catching up by due-count holds the average
// rate but quantizes arrivals into scheduler-sized bursts and caps honest
// injection around the sleep granularity; the deadline schedule keeps
// per-packet fidelity into the >100k pps range while still absorbing
// oversleeps through the same catch-up arithmetic.
func Pace(rate int, stop <-chan struct{}, send func(i int)) {
	start := time.Now()
	sent := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		due := int(time.Since(start) * time.Duration(rate) / time.Second)
		for sent < due {
			send(sent)
			sent++
		}
		// The next packet's absolute deadline; sleeping relative-to-now
		// would accumulate wakeup latency into the schedule.
		next := start.Add(time.Duration(sent+1) * time.Second / time.Duration(rate))
		for {
			select {
			case <-stop:
				return
			default:
			}
			remain := time.Until(next)
			if remain <= 0 {
				break
			}
			if remain > paceSpinWindow {
				time.Sleep(remain - paceSpinWindow)
				continue
			}
			runtime.Gosched()
		}
	}
}
