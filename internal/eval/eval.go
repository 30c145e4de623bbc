// Package eval is the evaluation harness: one entry point per table and
// figure of the paper's §8, each returning a rendered Table with the same
// rows/series the paper reports. The absolute numbers differ from the
// paper's testbed (this substrate is a simulator and an in-memory
// transport), but the shapes — who wins, the linear trends, the crossovers —
// are the reproduction targets. EXPERIMENTS.md records paper-vs-measured for
// each entry.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/sbi"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// rig is a lightweight controller plus middleboxes over an in-memory
// transport, for experiments that need no packet network.
type rig struct {
	ctrl *core.Controller
	tr   *sbi.MemTransport
	rts  []*mbox.Runtime
}

func newRig(opts core.Options) (*rig, error) {
	r := &rig{ctrl: core.NewController(opts), tr: sbi.NewMemTransport()}
	if err := r.ctrl.Serve(r.tr, "ctrl"); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rig) add(name string, logic mbox.Logic) (*mbox.Runtime, error) {
	rt := mbox.New(name, logic, mbox.Options{})
	if err := rt.Connect(r.tr, "ctrl"); err != nil {
		rt.Close()
		return nil, err
	}
	if err := r.ctrl.WaitForMB(name, 5*time.Second); err != nil {
		rt.Close()
		return nil, err
	}
	r.rts = append(r.rts, rt)
	return rt, nil
}

func (r *rig) close() {
	for _, rt := range r.rts {
		rt.Close()
	}
	r.ctrl.Close()
}

// directMB wires a runtime to a raw southbound connection controlled by the
// harness itself, for timing individual get/put operations (Figure 9)
// without controller brokering in the measurement path.
type directMB struct {
	rt     *mbox.Runtime
	conn   *sbi.Conn
	mu     chan struct{} // serializes request issue
	nextID uint64
	// replies carries non-event frames; events are counted.
	replies chan *sbi.Message
	events  chan *sbi.Message
}

func newDirectMB(name string, logic mbox.Logic) (*directMB, error) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		return nil, err
	}
	rt := mbox.New(name, logic, mbox.Options{})
	accepted := make(chan *sbi.Conn, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := sbi.NewConn(raw)
		hello, err := c.Receive()
		if err != nil {
			return
		}
		if err := c.Upgrade(hello.Codec); err != nil {
			return
		}
		accepted <- c
	}()
	if err := rt.Connect(tr, "ctrl"); err != nil {
		rt.Close()
		return nil, err
	}
	conn := <-accepted
	d := &directMB{
		rt: rt, conn: conn,
		mu:      make(chan struct{}, 1),
		replies: make(chan *sbi.Message, 4096),
		events:  make(chan *sbi.Message, 65536),
	}
	go func() {
		for {
			m, err := conn.Receive()
			if err != nil {
				close(d.replies)
				return
			}
			if m.Type == sbi.MsgEvent {
				select {
				case d.events <- m:
				default:
				}
			} else {
				d.replies <- m
			}
		}
	}()
	return d, nil
}

func (d *directMB) close() {
	d.conn.Close()
	d.rt.Close()
}

// request sends a request and returns its ID.
func (d *directMB) request(m *sbi.Message) (uint64, error) {
	d.nextID++
	m.ID = d.nextID
	return m.ID, d.conn.Send(m)
}

// collect reads replies for id until done/error, invoking onChunk per chunk.
func (d *directMB) collect(id uint64, timeout time.Duration, onChunk func(*sbi.Message)) (*sbi.Message, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-d.replies:
			if !ok {
				return nil, fmt.Errorf("eval: connection closed")
			}
			if m.ID != id {
				continue
			}
			switch m.Type {
			case sbi.MsgChunk:
				if onChunk != nil {
					onChunk(m)
				}
			case sbi.MsgDone:
				return m, nil
			case sbi.MsgError:
				return nil, fmt.Errorf("eval: %s", m.Error)
			}
		case <-deadline.C:
			return nil, fmt.Errorf("eval: timed out waiting for reply %d", id)
		}
	}
}

// paceSpinWindow is how close to a packet deadline the pacer switches from
// sleeping to yielding: within the window, timer granularity (~1 ms on a
// loaded box) would overshoot the deadline, so the pacer spins on the clock
// instead — cooperatively (runtime.Gosched per iteration), because on a
// single-CPU host a hard busy-wait would starve the consumer it is pacing.
const paceSpinWindow = 100 * time.Microsecond

// pace runs send at the given packet rate until stop closes, following an
// absolute-deadline schedule: packet i is due at start + i/rate, and the
// loop sleeps until just before the next deadline, then spins to it (a
// hybrid sleep/spin pacer in the timerfd-plus-busy-poll style). The seed
// slept a fixed 1 ms per wakeup and relied on due-count catch-up, which
// holds the average rate but quantizes arrivals into scheduler-sized bursts
// and caps honest injection around the sleep granularity; the deadline
// schedule keeps per-packet fidelity into the >100k pps range while still
// absorbing oversleeps through the same catch-up arithmetic.
func pace(rate int, stop <-chan struct{}, send func(i int)) {
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

// Wire-counter accumulation: experiments that exercise the southbound wire
// path record their middlebox connections' frame/flush counters here, so
// the benchmark table can report the frames-per-flush ratio the coalesced
// write path exists to raise.
var (
	wireFrames  atomic.Uint64
	wireFlushes atomic.Uint64
)

// recordWire adds one connection's counters to the accumulated wire stats.
func recordWire(c sbi.Counters) {
	wireFrames.Add(c.Sent)
	wireFlushes.Add(c.Flushes)
}

// TakeWireStats returns the frames and flushes accumulated since the last
// call and resets the counters. frames/flushes is the mean frames-per-flush
// across the runs in between.
func TakeWireStats() (frames, flushes uint64) {
	return wireFrames.Swap(0), wireFlushes.Swap(0)
}

// percentile returns the p-quantile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// sortDurations sorts in place and returns its argument.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}
