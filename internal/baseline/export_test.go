package baseline

import (
	"time"

	"openmb/internal/trace"
)

// Test hooks: observers only the package's own tests read.

// ActiveAt counts flows in progress at t — the state the deprecated
// middlebox still carries.
func ActiveAt(flows []trace.FlowInfo, t time.Duration) int {
	at := int64(t)
	n := 0
	for _, f := range flows {
		if f.Start <= at && f.End > at {
			n++
		}
	}
	return n
}

// Chunks returns the number of per-flow chunks of both classes.
func (img *Image) Chunks() int { return len(img.SupportPerflow) + len(img.ReportPerflow) }

// AvgAddedLatency returns the mean buffering delay per buffered packet.
func (r MoveResult) AvgAddedLatency() time.Duration {
	if r.Buffered == 0 {
		return 0
	}
	return r.AddedLatency / time.Duration(r.Buffered)
}
