// Package obs is the observability plane's core: a collector registry that
// renders Prometheus text-format exposition, fixed-bucket latency histograms
// with a zero-allocation record path, and a compile-once filtered flow
// tracer.
//
// The package deliberately does NOT import net/http. Components deep in the
// tree (core, mbox, sbi) register collectors into a Registry; only the
// daemon binaries (and internal/obs/obshttp) put an HTTP listener in front
// of it. That keeps the data plane free of any server dependency while the
// scrape path stays a plain io.Writer render.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Collector contributes metric series to a scrape. Collect is called with
// a fresh Emitter on every scrape; implementations read their counters
// (atomics or locked snapshots) and emit them. Collect must not block on
// the data path.
type Collector interface {
	Collect(e *Emitter)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Emitter)

// Collect calls f(e).
func (f CollectorFunc) Collect(e *Emitter) { f(e) }

// Registry is a set of collectors rendered together on each scrape.
// Registration order is preserved; a scrape walks collectors in order and
// groups series by metric family so the output stays valid exposition even
// when several collectors emit the same family (e.g. a controller's and a
// middlebox's connection counters).
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Safe for concurrent use with scrapes.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// WritePrometheus runs every registered collector and writes the combined
// exposition in Prometheus text format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	e := newEmitter()
	for _, c := range collectors {
		c.Collect(e)
	}
	return e.writeTo(w)
}

// family buffers all series of one metric name so they render consecutively
// (the text format requires a family's samples to be contiguous).
type family struct {
	name  string
	help  string
	typ   string // "counter" | "gauge" | "histogram"
	lines []string
}

// Emitter receives metric samples during a scrape. It groups samples by
// family and renders HELP/TYPE headers exactly once per family. Label
// arguments are alternating key, value pairs; a trailing odd key is
// ignored.
type Emitter struct {
	order    []string
	families map[string]*family
}

func newEmitter() *Emitter {
	return &Emitter{families: map[string]*family{}}
}

func (e *Emitter) fam(name, help, typ string) *family {
	f, ok := e.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		e.families[name] = f
		e.order = append(e.order, name)
	}
	return f
}

// Counter emits one sample of a monotonically non-decreasing series. The
// /metrics contract is per-series monotonicity: each (name, labels) series
// must never decrease between scrapes, so rate() never goes negative.
// Cross-series tearing (one series from scrape N, a sibling from N+1) is
// allowed and benign.
func (e *Emitter) Counter(name, help string, v uint64, labels ...string) {
	f := e.fam(name, help, "counter")
	f.lines = append(f.lines, name+renderLabels(labels)+" "+strconv.FormatUint(v, 10))
}

// Gauge emits one sample of a series that may go up or down.
func (e *Emitter) Gauge(name, help string, v float64, labels ...string) {
	f := e.fam(name, help, "gauge")
	f.lines = append(f.lines, name+renderLabels(labels)+" "+formatFloat(v))
}

// Histogram emits the _bucket/_sum/_count series of h under name. Bounds
// are rendered in seconds per Prometheus convention. The snapshot's count
// is derived from the bucket totals so `le="+Inf"` always equals `_count`
// within one scrape.
func (e *Emitter) Histogram(name, help string, h *Histogram, labels ...string) {
	s := h.Snapshot()
	f := e.fam(name, help, "histogram")
	cum := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		le := append(append([]string(nil), labels...), "le", formatFloat(BucketBound(i).Seconds()))
		f.lines = append(f.lines, name+"_bucket"+renderLabels(le)+" "+strconv.FormatUint(cum, 10))
	}
	inf := append(append([]string(nil), labels...), "le", "+Inf")
	f.lines = append(f.lines, name+"_bucket"+renderLabels(inf)+" "+strconv.FormatUint(s.Count, 10))
	f.lines = append(f.lines, name+"_sum"+renderLabels(labels)+" "+formatFloat(s.Sum.Seconds()))
	f.lines = append(f.lines, name+"_count"+renderLabels(labels)+" "+strconv.FormatUint(s.Count, 10))
}

func (e *Emitter) writeTo(w io.Writer) error {
	for _, name := range e.order {
		f := e.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, ln := range f.lines {
			if _, err := io.WriteString(w, ln+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseSeries parses Prometheus text exposition into a map from series
// (name plus rendered label set, exactly as exposed) to value. Comment and
// blank lines are skipped. It exists for tests and smoke tooling, not for
// general-purpose scraping.
func ParseSeries(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in %q: %v", ln, err)
		}
		out[ln[:sp]] = v
	}
	return out, nil
}

// SortedSeriesNames returns the distinct family names present in a parsed
// series map (label sets and _bucket/_sum/_count suffixes stripped), sorted.
func SortedSeriesNames(series map[string]float64) []string {
	seen := map[string]bool{}
	for k := range series {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
