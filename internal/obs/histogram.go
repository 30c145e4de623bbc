package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bounds are
// log-spaced powers of two over microseconds: bucket i covers durations up
// to 1µs<<i, so the range runs 1µs .. ~9 minutes before the +Inf bucket.
// That brackets everything the control plane measures: a put-ACK round trip
// over MemTransport sits near the bottom, a 25k-chunk move near the top.
const NumBuckets = 30

// Histogram is a fixed-bucket latency histogram with an allocation-free,
// lock-free record path: Observe is two atomic adds into a fixed array.
// The zero value is ready to use and must not be copied after first use.
//
// Snapshot consistency: each bucket counter and the sum are individually
// monotonic, but a snapshot taken concurrently with Observe may tear across
// fields (e.g. include an observation's bucket increment but not yet its
// sum). That is the same per-series-monotonicity contract the rest of
// /metrics exposes; rate() and histogram_quantile() tolerate it.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	inf    atomic.Uint64
	sumNS  atomic.Int64
}

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// bucketIndex maps a duration to its bucket, or NumBuckets for +Inf.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Smallest i with d <= 1µs<<i, i.e. ceil(log2(ceil(d/1µs))).
	us := uint64((d + time.Microsecond - 1) / time.Microsecond)
	i := bits.Len64(us - 1)
	if i >= NumBuckets {
		return NumBuckets
	}
	return i
}

// Observe records one duration. Negative durations clamp to zero. Safe for
// concurrent use; performs no allocation and takes no lock.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if i := bucketIndex(d); i < NumBuckets {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sumNS.Add(int64(d))
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
// Count is derived from the bucket totals, so Count always equals the
// +Inf cumulative bucket within one snapshot.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64 // per-bucket (non-cumulative) counts
	Inf    uint64             // observations above the last finite bound
	Count  uint64             // total observations = sum(Counts) + Inf
	Sum    time.Duration      // sum of observed durations
}

// Snapshot returns a copy of the histogram's current counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Inf = h.inf.Load()
	s.Count += s.Inf
	s.Sum = time.Duration(h.sumNS.Load())
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, mirroring histogram_quantile(). Returns 0 when
// the snapshot is empty; observations in the +Inf bucket report the last
// finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		if s.Counts[i] == 0 {
			cum += s.Counts[i]
			continue
		}
		next := cum + s.Counts[i]
		if float64(next) >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := (rank - float64(cum)) / float64(s.Counts[i])
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return BucketBound(NumBuckets - 1)
}
