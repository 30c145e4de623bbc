package obs

import (
	"sort"
	"strings"
	"time"
)

// Test hooks: observers only the package's own tests read.

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

// IsArmed reports whether a session is currently capturing.
func (t *FlowTracer) IsArmed() bool { return t.armed.Load() != nil }

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

// Mean returns the average observed duration, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
