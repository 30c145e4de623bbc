package obs

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/packet"
)

// Hop identifies the data-path stage a trace record was captured at.
type Hop uint8

const (
	// HopIngress: the packet was accepted into (or dropped by) the mbox
	// ingress ring.
	HopIngress Hop = iota
	// HopDispatch: the worker dequeued the packet and is about to run the
	// middlebox logic (burst or per-packet path).
	HopDispatch
	// HopVerdict: the middlebox logic returned; the note carries the
	// emit count (0 = dropped/absorbed).
	HopVerdict
	// HopEgress: an emitted packet left the runtime toward the forward
	// sink.
	HopEgress
)

// String returns the lowercase hop name used in rendered records.
func (h Hop) String() string {
	switch h {
	case HopIngress:
		return "ingress"
	case HopDispatch:
		return "dispatch"
	case HopVerdict:
		return "verdict"
	case HopEgress:
		return "egress"
	}
	return fmt.Sprintf("hop(%d)", uint8(h))
}

// TraceRecord is one per-hop observation of a matched packet.
type TraceRecord struct {
	MB   string         // runtime name that captured the record
	Hop  Hop            // data-path stage
	Key  packet.FlowKey // the packet's flow at that stage (post-rewrite on egress)
	When time.Time
	Note string // stage detail: "replay", "emits=2", "drop:ring-full", ...
}

// String renders the record in the one-line wire/dump form.
func (r TraceRecord) String() string {
	s := fmt.Sprintf("%s %s %s", r.MB, r.Hop, r.Key)
	if r.Note != "" {
		s += " " + r.Note
	}
	return s
}

// TraceSpec arms a tracer: capture up to Budget records of packets whose
// flow satisfies Match in either direction.
type TraceSpec struct {
	Match  packet.FieldMatch
	Budget int // max records; <=0 selects DefaultTraceBudget
}

// DefaultTraceBudget is the record cap applied when a spec leaves Budget
// unset.
const DefaultTraceBudget = 256

// ArmedTrace is one arming session: the predicate compiled from the spec,
// the remaining budget, and the captured records. Obtained from
// FlowTracer.Enabled on the hot path; nil means disarmed.
type ArmedTrace struct {
	spec TraceSpec
	// match is the spec's match lowered once, at arm time (skbtrace's
	// compile-the-filter-once discipline). The hot path never re-parses or
	// re-validates the filter.
	match packet.IDMatch
	used  atomic.Int64
	mu    sync.Mutex
	recs  []TraceRecord
}

// Record captures one hop observation if id matches the lowered match
// (either direction) and budget remains. Non-matching packets pay only the
// masked compares; matching packets pay an atomic add and, within budget, a
// short critical section.
func (a *ArmedTrace) Record(mb string, hop Hop, id packet.FlowID, note string) {
	if !a.match.MatchEither(id) {
		return
	}
	a.capture(TraceRecord{MB: mb, Hop: hop, Key: id.Key(), Note: note})
}

// RecordEmits captures a HopVerdict record carrying the logic's emit count.
// The note string is built only after the predicate matches, so an armed
// tracer costs non-matching packets no allocation.
func (a *ArmedTrace) RecordEmits(mb string, id packet.FlowID, emits int) {
	if !a.match.MatchEither(id) {
		return
	}
	a.capture(TraceRecord{MB: mb, Hop: HopVerdict, Key: id.Key(), Note: "emits=" + strconv.Itoa(emits)})
}

func (a *ArmedTrace) capture(rec TraceRecord) {
	if a.used.Add(1) > int64(a.spec.Budget) {
		return
	}
	rec.When = time.Now()
	a.mu.Lock()
	a.recs = append(a.recs, rec)
	a.mu.Unlock()
}

func (a *ArmedTrace) records() []TraceRecord {
	a.mu.Lock()
	out := append([]TraceRecord(nil), a.recs...)
	a.mu.Unlock()
	return out
}

// FlowTracer is a filtered packet tracer embedded in each mbox runtime.
// Disarmed cost is a single atomic pointer load per hook (see
// BenchmarkTracerDisarmed); the zero value is disarmed and ready to use.
//
// Records survive Disarm: Records() returns the current session's records
// while armed, or the last session's after disarming, so a caller can arm,
// run traffic, disarm, then dump.
type FlowTracer struct {
	armed atomic.Pointer[ArmedTrace]

	mu   sync.Mutex
	last *ArmedTrace
}

// Arm lowers spec.Match once and starts capturing. Re-arming replaces the
// previous session (its records remain retrievable until the new session
// captures, i.e. Records() always reflects the newest session).
func (t *FlowTracer) Arm(spec TraceSpec) {
	if spec.Budget <= 0 {
		spec.Budget = DefaultTraceBudget
	}
	a := &ArmedTrace{spec: spec, match: spec.Match.ForID()}
	t.mu.Lock()
	t.last = a
	t.armed.Store(a)
	t.mu.Unlock()
}

// Disarm stops capturing. Already-captured records remain retrievable.
func (t *FlowTracer) Disarm() {
	t.armed.Store(nil)
}

// Enabled returns the active session, or nil when disarmed. This is the
// hot-path check: exactly one atomic pointer load, no branches beyond the
// caller's nil test, no allocation.
func (t *FlowTracer) Enabled() *ArmedTrace {
	return t.armed.Load()
}

// IsArmed reports whether a session is currently capturing.
func (t *FlowTracer) IsArmed() bool { return t.armed.Load() != nil }

// Records returns a snapshot of the newest session's records (armed or
// not). Nil if the tracer was never armed.
func (t *FlowTracer) Records() []TraceRecord {
	t.mu.Lock()
	a := t.last
	t.mu.Unlock()
	if a == nil {
		return nil
	}
	return a.records()
}

// Spec returns the newest session's spec and whether one exists.
func (t *FlowTracer) Spec() (TraceSpec, bool) {
	t.mu.Lock()
	a := t.last
	t.mu.Unlock()
	if a == nil {
		return TraceSpec{}, false
	}
	return a.spec, true
}
