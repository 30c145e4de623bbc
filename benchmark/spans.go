package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder is the benchmark's own in-memory span recorder: one span around
// every call the benchmark makes into a layer while tracing is on, with a
// count and duration total per span name so every ratio has its denominator.
// Nothing inside the program under test is instrumented.
type recorder struct {
	t0 time.Time

	on     atomic.Bool
	nextID atomic.Int32

	mu    sync.Mutex
	spans []spanRec // first maxSpans only; the aggregates see every span
	agg   map[string]*spanAgg
}

// maxSpans bounds the spans kept verbatim (chain-sat would otherwise record
// one per burst, ~15k/s); maxDurs bounds the per-name duration samples kept
// for percentiles.
const (
	maxSpans = 20000
	maxDurs  = 200000
)

type spanRec struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // 0 = root
	Op      int64  `json:"op"`     // operation the span belongs to
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type spanAgg struct {
	count   int64
	totalNS int64
	selfNS  int64 // total minus the part child spans cover
	durs    []int64
}

// span is an open span. A nil *span is valid and records nothing, so call
// sites do not branch on whether tracing is on.
type span struct {
	r       *recorder
	name    string
	id      int32
	parent  *span
	op      int64
	start   time.Time
	childNS int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), agg: map[string]*spanAgg{}}
}

func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// enabled reports whether spans are being recorded right now.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span; parent may be nil. Returns nil while tracing is off.
func (r *recorder) begin(name string, parent *span, op int64) *span {
	if !r.enabled() {
		return nil
	}
	return &span{r: r, name: name, id: r.nextID.Add(1), parent: parent, op: op, start: time.Now()}
}

// end closes the span. A parent and its children are opened and closed by
// one goroutine, so childNS needs no lock.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	dur := now.Sub(s.start).Nanoseconds()
	if s.parent != nil {
		s.parent.childNS += dur
	}
	r := s.r
	r.mu.Lock()
	a := r.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		r.agg[s.name] = a
	}
	a.count++
	a.totalNS += dur
	a.selfNS += dur - s.childNS
	if len(a.durs) < maxDurs {
		a.durs = append(a.durs, dur)
	}
	if len(r.spans) < maxSpans {
		var pid int32
		if s.parent != nil {
			pid = s.parent.id
		}
		r.spans = append(r.spans, spanRec{
			Name: s.name, ID: s.id, Parent: pid, Op: s.op,
			StartNS: s.start.Sub(r.t0).Nanoseconds(), EndNS: now.Sub(r.t0).Nanoseconds(),
		})
	}
	r.mu.Unlock()
}

// p50 returns the median duration of the named span in the given unit
// (0 when the span never closed).
func (r *recorder) p50(name string, unit time.Duration) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.agg[name]
	if a == nil {
		return 0
	}
	v := make([]float64, len(a.durs))
	for i, d := range a.durs {
		v[i] = float64(d) / float64(unit)
	}
	return median(v)
}

// write stores the kept spans and the per-name summary as JSON.
func (r *recorder) write(path string) error {
	type summary struct {
		Name    string  `json:"name"`
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
		P50US   float64 `json:"p50_us"`
	}
	r.mu.Lock()
	doc := struct {
		Summary []summary `json:"summary"`
		Kept    int       `json:"spans_kept"`
		Spans   []spanRec `json:"spans"`
	}{Kept: len(r.spans), Spans: r.spans}
	for name, a := range r.agg {
		v := make([]float64, len(a.durs))
		for i, d := range a.durs {
			v[i] = float64(d) / 1e3
		}
		doc.Summary = append(doc.Summary, summary{
			Name: name, Count: a.count,
			TotalMS: float64(a.totalNS) / 1e6, SelfMS: float64(a.selfNS) / 1e6, P50US: median(v),
		})
	}
	r.mu.Unlock()
	sort.Slice(doc.Summary, func(i, j int) bool { return doc.Summary[i].Name < doc.Summary[j].Name })
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
