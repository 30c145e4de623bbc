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
// Prefix-constrained gets use a flow-keyed index (state.FlowIndex — the
// wildcard-match structure of the paper's footnote 6) so their cost is
// O(matched), not O(resident). Full-wildcard gets (and any match the index
// cannot answer) scan the whole table, reproducing the get/put cost asymmetry
// measured in Figure 9 (the paper attributes the ~6x gap to PRADS's and
// Bro's linear search).
package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
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
const recordWireSize = 8 + 8 + 4*8 + 2 + 2

func (c *connRecord) marshal() []byte {
	b := make([]byte, 0, recordWireSize+len(c.Service)+len(c.OS))
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		b = append(b, tmp[:8]...)
	}
	put64(uint64(c.FirstSeen))
	put64(uint64(c.LastSeen))
	put64(c.Packets[0])
	put64(c.Packets[1])
	put64(c.Bytes[0])
	put64(c.Bytes[1])
	b = append(b, byte(len(c.Service)), byte(len(c.OS)))
	b = append(b, c.Service...)
	b = append(b, c.OS...)
	return b
}

func (c *connRecord) unmarshal(b []byte) error {
	if len(b) < recordWireSize-2 {
		return fmt.Errorf("monitor: short record (%d bytes)", len(b))
	}
	c.FirstSeen = int64(binary.BigEndian.Uint64(b[0:8]))
	c.LastSeen = int64(binary.BigEndian.Uint64(b[8:16]))
	c.Packets[0] = binary.BigEndian.Uint64(b[16:24])
	c.Packets[1] = binary.BigEndian.Uint64(b[24:32])
	c.Bytes[0] = binary.BigEndian.Uint64(b[32:40])
	c.Bytes[1] = binary.BigEndian.Uint64(b[40:48])
	sl, ol := int(b[48]), int(b[49])
	rest := b[50:]
	if len(rest) < sl+ol {
		return fmt.Errorf("monitor: truncated record strings")
	}
	c.Service = string(rest[:sl])
	c.OS = string(rest[sl : sl+ol])
	return nil
}

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
	mu     sync.Mutex
	conns  map[packet.FlowID]*connRecord
	shared sharedStat
	config *state.ConfigTree
	// index is the flow-keyed index behind prefix-constrained gets — the
	// wildcard-match structure of the paper's footnote 6. It holds exactly
	// the keys of conns.
	index *state.FlowIndex
	// serviceOn caches the "service_detection" knob: reading the config
	// tree costs per-packet allocations (path splitting), which the
	// zero-copy data path cannot afford. Refreshed by the config watcher.
	serviceOn bool
}

// New returns an empty monitor with default configuration.
func New() *Monitor {
	m := &Monitor{
		conns:  map[packet.FlowID]*connRecord{},
		config: state.NewConfigTree(),
		index:  state.NewFlowIndex(),
	}
	// Default PRADS-style configuration knobs; control applications clone
	// and adjust these (§6.2 step 1).
	if err := m.config.Set("service_detection", []string{"on"}); err != nil {
		panic("monitor: default config: " + err.Error())
	}
	if err := m.config.Set("os_detection", []string{"on"}); err != nil {
		panic("monitor: default config: " + err.Error())
	}
	m.config.Watch(func(string) {
		m.mu.Lock()
		m.applyConfigLocked()
		m.mu.Unlock()
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

// recCache caches the last (canonical ID -> record) resolution within one
// burst, so consecutive packets of the same flow — the common arrival
// pattern — skip the connection-table lookup. Only valid while m.mu is held
// continuously (ProcessBurst holds it for the whole burst).
type recCache struct {
	id  packet.FlowID
	rec *connRecord
}

// processLocked is ProcessBurst's per-packet body. Caller holds m.mu. It
// returns the packet's canonical ID and the newly detected service name (""
// if none) for the introspection raise, which must happen outside the lock.
func (m *Monitor) processLocked(ctx *mbox.Context, p *packet.Packet, cache *recCache) (packet.FlowID, string) {
	id, reversed := p.FlowID().Canonical()
	dir := 0
	if reversed {
		dir = 1
	}
	newService := ""
	if !ctx.SkipPerflow() {
		rec := cache.rec
		if rec == nil || cache.id != id {
			var ok bool
			rec, ok = m.conns[id]
			if !ok {
				rec = &connRecord{FirstSeen: p.Timestamp}
				m.conns[id] = rec
				m.index.InsertID(id)
				if !ctx.SkipShared() {
					m.shared.Flows++
				}
			}
			cache.id, cache.rec = id, rec
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
		ctx.Touch(state.Reporting, id)
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
// forward packets. One mutex acquisition covers the whole burst, and
// consecutive same-flow packets reuse the last record lookup. Introspection
// raises are collected under the lock and raised after it in packet order;
// the common case (no new detections) allocates nothing.
func (m *Monitor) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	type detection struct {
		idx     int
		id      packet.FlowID
		service string
	}
	var found []detection
	var cache recCache
	m.mu.Lock()
	for i, p := range pkts {
		if id, svc := m.processLocked(&ctxs[i], p, &cache); svc != "" {
			found = append(found, detection{idx: i, id: id, service: svc})
		}
	}
	m.mu.Unlock()
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

// GetPerflow implements mbox.Logic. Per-flow state is reporting state;
// prefix-constrained matches use the flow index, everything else scans the
// connection table linearly, as in PRADS (§7).
func (m *Monitor) GetPerflow(class state.Class, match packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	if class != state.Reporting {
		return nil // PRADS has no per-flow supporting state
	}
	for _, id := range m.scanKeys(match) {
		err := emit(id.Key(), func(mark func()) ([]byte, error) {
			m.mu.Lock()
			defer m.mu.Unlock()
			mark()
			rec, ok := m.conns[id]
			if !ok {
				// Deleted between scan and serialize: an empty
				// record is correct (events cover any updates).
				rec = &connRecord{}
			}
			return rec.marshal(), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanKeys collects the keys matching match: via the flow index when it can
// answer (a prefix-constrained match), else the full-table linear search of
// PRADS — the behaviour footnote 6 of the paper points at.
func (m *Monitor) scanKeys(match packet.FieldMatch) []packet.FlowID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids, ok := m.index.LookupIDs(match)
	if !ok {
		im := match.ForID()
		for id := range m.conns {
			if im.MatchEither(id) {
				ids = append(ids, id)
			}
		}
	}
	packet.SortIDs(ids)
	return ids
}

// PutPerflow implements mbox.Logic: install a record moved from a peer. If a
// record already exists (the flow started at this instance while the move
// was in flight), counters are summed — reporting state merges additively.
// The record installs under the canonical ID whichever direction the peer's
// key names; a reversed key's per-direction counters swap with it.
func (m *Monitor) PutPerflow(class state.Class, c state.Chunk) error {
	if class != state.Reporting {
		return fmt.Errorf("monitor: no per-flow %v state", class)
	}
	var rec connRecord
	if err := rec.unmarshal(c.Blob); err != nil {
		return err
	}
	id, ok := c.Key.ID()
	if !ok {
		return fmt.Errorf("monitor: flow key %s is not IPv4", c.Key)
	}
	id, reversed := id.Canonical()
	if reversed {
		rec.Packets[0], rec.Packets[1] = rec.Packets[1], rec.Packets[0]
		rec.Bytes[0], rec.Bytes[1] = rec.Bytes[1], rec.Bytes[0]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.conns[id]; ok {
		existing.Packets[0] += rec.Packets[0]
		existing.Packets[1] += rec.Packets[1]
		existing.Bytes[0] += rec.Bytes[0]
		existing.Bytes[1] += rec.Bytes[1]
		if rec.FirstSeen < existing.FirstSeen {
			existing.FirstSeen = rec.FirstSeen
		}
		if rec.LastSeen > existing.LastSeen {
			existing.LastSeen = rec.LastSeen
		}
		if existing.Service == "" {
			existing.Service = rec.Service
		}
		if existing.OS == "" {
			existing.OS = rec.OS
		}
		return nil
	}
	m.conns[id] = &rec
	m.index.InsertID(id)
	m.shared.Flows++
	return nil
}

// DelPerflow implements mbox.Logic: remove without reporting side effects.
// The shared flow counter is NOT decremented: the flows were observed here,
// and the state accounting for them now lives elsewhere.
func (m *Monitor) DelPerflow(class state.Class, match packet.FieldMatch) (int, error) {
	if class != state.Reporting {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	im := match.ForID()
	n := 0
	for id := range m.conns {
		if im.MatchEither(id) {
			delete(m.conns, id)
			m.index.RemoveID(id)
			n++
		}
	}
	return n, nil
}

// GetShared implements mbox.Logic: export the prads_stat counters.
func (m *Monitor) GetShared(class state.Class, mark func()) ([]byte, error) {
	if class != state.Reporting {
		return nil, mbox.ErrNoSharedState
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shared.unmarshalAdd(blob)
}

// Stats implements mbox.Logic.
func (m *Monitor) Stats(match packet.FieldMatch) sbi.StatsReply {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s sbi.StatsReply
	im := match.ForID()
	for id, rec := range m.conns {
		if im.MatchEither(id) {
			s.ReportPerflowChunks++
			s.ReportPerflowBytes += recordWireSize + len(rec.Service) + len(rec.OS)
		}
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	s.Shared.Packets = m.shared.Packets
	s.Shared.Bytes = m.shared.Bytes
	s.Shared.TCP = m.shared.TCP
	s.Shared.UDP = m.shared.UDP
	s.Shared.ICMP = m.shared.ICMP
	s.Shared.Flows = m.shared.Flows
	s.Shared.AssetsFound = m.shared.AssetsFound
	s.Flows = len(m.conns)
	return s
}

// FlowRecord returns a copy of the record for key, if present.
func (m *Monitor) FlowRecord(key packet.FlowKey) (connRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, _ := key.Canonical().ID()
	rec, ok := m.conns[id]
	if !ok {
		return connRecord{}, false
	}
	return *rec, true
}

// FlowCount returns the number of per-flow records.
func (m *Monitor) FlowCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// TotalPerflowPackets sums packet counters across all per-flow records —
// the quantity that must be conserved across moves (no over/under
// reporting).
func (m *Monitor) TotalPerflowPackets() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum uint64
	for _, rec := range m.conns {
		sum += rec.Packets[0] + rec.Packets[1]
	}
	return sum
}
