// Package monitor implements a PRADS-like passive asset monitor (§7 of the
// paper). It mirrors the state shapes of PRADS that the paper's evaluation
// depends on:
//
//   - one flat per-flow connection record per flow — per-flow REPORTING
//     state (PRADS keeps a connection object per flow, stored in buckets);
//   - a single shared statistics structure (prads_stat) counting packets,
//     bytes, and flows across all traffic — shared REPORTING state, merged
//     by summation when instances consolidate (putSharedReport adds counter
//     values, exactly as the paper describes);
//   - passive asset detection: service fingerprints recognized from payload
//     prefixes, raising introspection events on first detection.
//
// The records live in an mbox.Table under canonical flow IDs, which also
// answers the southbound get, put and delete. A prefix-constrained get uses
// the table's flow index (the wildcard-match structure of the paper's
// footnote 6), so its cost is O(matched), not O(resident); a full-wildcard
// get scans the whole table, reproducing the get/put cost asymmetry measured
// in Figure 9 (the paper attributes the ~6x gap to PRADS's and Bro's linear
// search).
package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Kind is the middlebox type name.
const Kind = "monitor"

var _ mbox.Logic = (*Monitor)(nil)

// connRecord is the per-flow reporting state: PRADS's connection object.
type connRecord struct {
	FirstSeen int64
	LastSeen  int64
	// Packets and Bytes per direction: index 0 = forward (the direction of
	// the flow's canonical key, which the record is stored under), 1 =
	// reverse.
	Packets [2]uint64
	Bytes   [2]uint64
	// Service is the detected service name ("" until detected).
	Service string
	// OS is a coarse passive OS guess from SYN TTL.
	OS string
}

// recordWireSize is the fixed binary encoding size of a connRecord minus the
// variable-length strings.
const recordWireSize = 8 + 8 + 4*8 + 2

// recordCodec is the monitor's per-flow Codec.
type recordCodec Monitor

func (*recordCodec) Append(b []byte, c *connRecord) []byte {
	for _, v := range [...]uint64{uint64(c.FirstSeen), uint64(c.LastSeen), c.Packets[0], c.Packets[1], c.Bytes[0], c.Bytes[1]} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	b = append(b, byte(len(c.Service)), byte(len(c.OS)))
	b = append(b, c.Service...)
	return append(b, c.OS...)
}

// Decode parses a record exported under id; a reversed id swaps the
// per-direction counters, so the record reads in its canonical direction.
func (*recordCodec) Decode(id packet.FlowID, b []byte) (*connRecord, error) {
	if len(b) < recordWireSize {
		return nil, fmt.Errorf("monitor: short record (%d bytes)", len(b))
	}
	var v [6]uint64
	for i := range v {
		v[i] = binary.BigEndian.Uint64(b[i*8:])
	}
	c := &connRecord{FirstSeen: int64(v[0]), LastSeen: int64(v[1]), Packets: [2]uint64{v[2], v[3]}, Bytes: [2]uint64{v[4], v[5]}}
	sl, ol := int(b[48]), int(b[49])
	rest := b[recordWireSize:]
	if len(rest) < sl+ol {
		return nil, fmt.Errorf("monitor: truncated record strings")
	}
	c.Service = string(rest[:sl])
	c.OS = string(rest[sl : sl+ol])
	if _, reversed := id.Canonical(); reversed {
		c.Packets[0], c.Packets[1] = c.Packets[1], c.Packets[0]
		c.Bytes[0], c.Bytes[1] = c.Bytes[1], c.Bytes[0]
	}
	return c, nil
}

// Put sums an incoming record into one already here (the flow started at
// this instance while the move was in flight): reporting state merges
// additively. A new record counts as a flow in the shared statistics.
func (c *recordCodec) Put(_ packet.FlowID, in, cur *connRecord, has bool) (*connRecord, error) {
	if !has {
		c.shared.Flows++
		return in, nil
	}
	cur.Packets[0] += in.Packets[0]
	cur.Packets[1] += in.Packets[1]
	cur.Bytes[0] += in.Bytes[0]
	cur.Bytes[1] += in.Bytes[1]
	cur.FirstSeen = min(cur.FirstSeen, in.FirstSeen)
	cur.LastSeen = max(cur.LastSeen, in.LastSeen)
	if cur.Service == "" {
		cur.Service = in.Service
	}
	if cur.OS == "" {
		cur.OS = in.OS
	}
	return cur, nil
}

// Drop keeps the shared flow counter: the flows were observed here, and the
// state accounting for them now lives elsewhere.
func (*recordCodec) Drop(packet.FlowID, *connRecord) {}

// sharedStat is the shared reporting state: PRADS's prads_stat.
type sharedStat struct {
	Packets     uint64
	Bytes       uint64
	TCP         uint64
	UDP         uint64
	ICMP        uint64
	Flows       uint64
	AssetsFound uint64
}

const sharedWireSize = 7 * 8

func (s *sharedStat) marshal() []byte {
	b := make([]byte, sharedWireSize)
	for i, v := range []uint64{s.Packets, s.Bytes, s.TCP, s.UDP, s.ICMP, s.Flows, s.AssetsFound} {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func (s *sharedStat) unmarshalAdd(b []byte) error {
	if len(b) < sharedWireSize {
		return fmt.Errorf("monitor: short shared stat (%d bytes)", len(b))
	}
	s.Packets += binary.BigEndian.Uint64(b[0:])
	s.Bytes += binary.BigEndian.Uint64(b[8:])
	s.TCP += binary.BigEndian.Uint64(b[16:])
	s.UDP += binary.BigEndian.Uint64(b[24:])
	s.ICMP += binary.BigEndian.Uint64(b[32:])
	s.Flows += binary.BigEndian.Uint64(b[40:])
	s.AssetsFound += binary.BigEndian.Uint64(b[48:])
	return nil
}

// serviceFingerprints map payload prefixes to service names, mimicking
// PRADS's passive service detection.
var serviceFingerprints = []struct {
	prefix  []byte
	service string
}{
	{[]byte("HTTP/1."), "http"},
	{[]byte("GET "), "http"},
	{[]byte("POST "), "http"},
	{[]byte("HEAD "), "http"},
	{[]byte("SSH-"), "ssh"},
	{[]byte("220 "), "smtp"},
	{[]byte("+OK"), "pop3"},
	{[]byte("* OK"), "imap"},
}

// fingerprintStart[b] reports whether some fingerprint starts with byte b.
// Most payloads of a flow whose service is still unknown match nothing, and
// their first byte says so without walking the list.
var fingerprintStart = func() (t [256]bool) {
	for _, fp := range serviceFingerprints {
		t[fp.prefix[0]] = true
	}
	return t
}()

// detectService returns the service of the first fingerprint that prefixes
// payload, "" if none does.
func detectService(payload []byte) string {
	if len(payload) == 0 || !fingerprintStart[payload[0]] {
		return ""
	}
	for _, fp := range serviceFingerprints {
		if bytes.HasPrefix(payload, fp.prefix) {
			return fp.service
		}
	}
	return ""
}

// Monitor is the middlebox logic. It implements mbox.Logic.
type Monitor struct {
	// Table holds the connection records under canonical flow IDs. Its
	// lock is the monitor's lock.
	mbox.Table[*connRecord]
	shared sharedStat
	config *state.ConfigTree
	// serviceOn caches the "service_detection" knob: reading the config
	// tree costs per-packet allocations (path splitting), which the
	// zero-copy data path cannot afford. Refreshed by the config watcher.
	serviceOn bool
}

// New returns an empty monitor with default configuration.
func New() *Monitor {
	m := &Monitor{config: state.NewConfigTree()}
	m.Init(Kind, state.Reporting, mbox.Canonical, (*recordCodec)(m))
	// Default PRADS-style configuration knobs; control applications clone
	// and adjust these (§6.2 step 1).
	if err := m.config.Set("service_detection", []string{"on"}); err != nil {
		panic("monitor: default config: " + err.Error())
	}
	if err := m.config.Set("os_detection", []string{"on"}); err != nil {
		panic("monitor: default config: " + err.Error())
	}
	m.config.Watch(func(string) {
		m.Lock()
		m.applyConfigLocked()
		m.Unlock()
	})
	m.serviceOn = true
	return m
}

// applyConfigLocked refreshes the cached service-detection switch.
func (m *Monitor) applyConfigLocked() {
	v, err := m.config.Get("service_detection")
	m.serviceOn = err == nil && len(v) > 0 && v[0] == "on"
}

// Kind implements mbox.Logic.
func (m *Monitor) Kind() string { return Kind }

// Process runs p through ProcessBurst as a burst of one. It is not part of
// mbox.Logic and the runtime never calls it; it exists only because the
// benchmark module's tapMonitor (benchmark/chain.go) still calls it. Delete
// it together with that caller.
func (m *Monitor) Process(ctx *mbox.Context, p *packet.Packet) {
	m.ProcessBurst(unsafe.Slice(ctx, 1), []*packet.Packet{p})
}

// processLocked is ProcessBurst's per-packet body. Caller holds the lock. It
// returns the packet's canonical ID and the newly detected service name (""
// if none) for the introspection raise, which must happen outside the lock.
func (m *Monitor) processLocked(ctx *mbox.Context, p *packet.Packet) (packet.FlowID, string) {
	id, reversed := p.FlowID().Canonical()
	dir := 0
	if reversed {
		dir = 1
	}
	newService := ""
	if !ctx.SkipPerflow() {
		rec, ok := m.Touch(ctx, id)
		if !ok {
			rec = &connRecord{FirstSeen: p.Timestamp}
			m.Insert(ctx, id, rec)
			if !ctx.SkipShared() {
				m.shared.Flows++
			}
		}
		rec.LastSeen = p.Timestamp
		rec.Packets[dir]++
		rec.Bytes[dir] += uint64(len(p.Payload))

		if rec.Service == "" && m.serviceOn {
			if newService = detectService(p.Payload); newService != "" {
				rec.Service = newService
				if !ctx.SkipShared() {
					m.shared.AssetsFound++
				}
			}
		}
		if rec.OS == "" && p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
			rec.OS = osFromTTL(p.TTL)
		}
	}

	if !ctx.SkipShared() {
		m.shared.Packets++
		m.shared.Bytes += uint64(len(p.Payload))
		switch p.Proto {
		case packet.ProtoTCP:
			m.shared.TCP++
		case packet.ProtoUDP:
			m.shared.UDP++
		case packet.ProtoICMP:
			m.shared.ICMP++
		}
		ctx.TouchShared(state.Reporting)
	}
	return id, newService
}

// ProcessBurst implements mbox.Logic: update each flow's connection record
// and the shared statistics. A passive monitor taps traffic; it does not
// forward packets. One lock acquisition covers the whole burst. Introspection
// raises are collected under the lock and raised after it in packet order;
// the common case (no new detections) allocates nothing.
func (m *Monitor) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	type detection struct {
		idx     int
		id      packet.FlowID
		service string
	}
	var found []detection
	m.Lock()
	for i, p := range pkts {
		if id, svc := m.processLocked(&ctxs[i], p); svc != "" {
			found = append(found, detection{idx: i, id: id, service: svc})
		}
	}
	m.Unlock()
	for _, d := range found {
		ctxs[d.idx].RaiseIntrospection("monitor.asset.detected", d.id, map[string]string{"service": d.service})
	}
}

// osFromTTL is the classic passive-OS heuristic from initial TTL.
func osFromTTL(ttl uint8) string {
	switch {
	case ttl > 128:
		return "solaris/cisco"
	case ttl > 64:
		return "windows"
	default:
		return "linux/unix"
	}
}

// GetShared implements mbox.Logic: export the prads_stat counters.
func (m *Monitor) GetShared(class state.Class, mark func()) ([]byte, error) {
	if class != state.Reporting {
		return nil, mbox.ErrNoSharedState
	}
	m.Lock()
	defer m.Unlock()
	mark()
	return m.shared.marshal(), nil
}

// PutShared implements mbox.Logic: merge by adding the counter values in the
// incoming structure to the counters already here — the paper's PRADS
// putSharedReport implementation (§7).
func (m *Monitor) PutShared(class state.Class, blob []byte) error {
	if class != state.Reporting {
		return mbox.ErrNoSharedState
	}
	m.Lock()
	defer m.Unlock()
	return m.shared.unmarshalAdd(blob)
}

// Stats implements mbox.Logic.
func (m *Monitor) Stats(match packet.FieldMatch) sbi.StatsReply {
	s := m.Table.Stats(match)
	s.ReportSharedBytes = sharedWireSize
	return s
}

// Config implements mbox.Logic.
func (m *Monitor) Config() *state.ConfigTree { return m.config }

// Snapshot is the exported view of the monitor's statistics, used by the
// evaluation harness to compare collective monitoring behaviour across
// scaling events (§6.2: "no over-reporting or under-reporting").
type Snapshot struct {
	Shared struct {
		Packets, Bytes, TCP, UDP, ICMP, Flows, AssetsFound uint64
	}
	Flows int
}

// Snapshot returns a copy of the monitor's counters.
func (m *Monitor) Snapshot() Snapshot {
	m.Lock()
	defer m.Unlock()
	var s Snapshot
	s.Shared.Packets = m.shared.Packets
	s.Shared.Bytes = m.shared.Bytes
	s.Shared.TCP = m.shared.TCP
	s.Shared.UDP = m.shared.UDP
	s.Shared.ICMP = m.shared.ICMP
	s.Shared.Flows = m.shared.Flows
	s.Shared.AssetsFound = m.shared.AssetsFound
	s.Flows = m.Len()
	return s
}

// FlowRecord returns a copy of the record for key, if present.
func (m *Monitor) FlowRecord(key packet.FlowKey) (connRecord, bool) {
	m.Lock()
	defer m.Unlock()
	id, _ := key.Canonical().ID()
	rec, ok := m.Get(id)
	if !ok {
		return connRecord{}, false
	}
	return *rec, true
}

// FlowCount returns the number of per-flow records.
func (m *Monitor) FlowCount() int {
	m.Lock()
	defer m.Unlock()
	return m.Len()
}

// TotalPerflowPackets sums packet counters across all per-flow records —
// the quantity that must be conserved across moves (no over/under
// reporting).
func (m *Monitor) TotalPerflowPackets() uint64 {
	m.Lock()
	defer m.Unlock()
	var sum uint64
	for _, rec := range m.All() {
		sum += rec.Packets[0] + rec.Packets[1]
	}
	return sum
}
