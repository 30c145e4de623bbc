// Package eval is the ledger of the paper's claims: Ledger holds one entry
// per table and figure of the paper's §8, each returning a Table with the
// same rows/series the paper reports, and is the only list of experiments
// and the only home of their quick/full parameters (cmd/openmb-bench prints
// it, the package's tests assert each entry's shape). The absolute numbers
// differ from the paper's testbed (this substrate is a simulator and an
// in-memory transport), but the shapes — who wins, the linear trends, the
// crossovers — are the reproduction targets. docs/REPRODUCTION.md records
// paper-vs-measured for each entry; docs/ARCHITECTURE.md describes the
// system under measurement.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/sbi"
)

// Table is one experiment's output.
type Table struct {
	ID      string // the ledger id of the entry that produced it
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
	// One width per column of the widest line: a row may be wider than the
	// header.
	var widths []int
	for _, cells := range append([][]string{t.Columns}, t.Rows...) {
		for i, cell := range cells {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(cell))
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
