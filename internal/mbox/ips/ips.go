package ips

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Kind is the middlebox type name.
const Kind = "ips"

var _ mbox.Logic = (*IPS)(nil)

// IPS is the middlebox logic. It implements mbox.Logic.
type IPS struct {
	mu sync.Mutex
	// tables holds connections per transport protocol, as Bro stores
	// Connection objects in one of three hash tables (§7).
	tables map[uint8]map[packet.FlowID]*Conn
	// index spans all three tables so prefix-constrained gets avoid the
	// full linear scan (state.FlowIndex; footnote 6 of the paper).
	index  *state.FlowIndex
	scans  *scanTracker
	report reportCounters
	sigs   []*signature
	config *state.ConfigTree
	// sigsDirty is set by the config watcher; rules recompile lazily on
	// the next packet.
	sigsDirty bool
}

// reportCounters is the IPS's shared reporting state.
type reportCounters struct {
	Alerts      uint64 `json:"alerts"`
	Dropped     uint64 `json:"dropped"`
	ConnsLogged uint64 `json:"connsLogged"`
	ScanAlerts  uint64 `json:"scanAlerts"`
}

// New returns an IPS with default configuration: scan threshold 10, no
// signature rules.
func New() *IPS {
	ips := &IPS{
		tables: map[uint8]map[packet.FlowID]*Conn{
			packet.ProtoTCP:  {},
			packet.ProtoUDP:  {},
			packet.ProtoICMP: {},
		},
		index:  state.NewFlowIndex(),
		config: state.NewConfigTree(),
	}
	if err := ips.config.Set("scan/port_threshold", []string{"10"}); err != nil {
		panic("ips: default config: " + err.Error())
	}
	ips.scans = newScanTracker(10)
	ips.config.Watch(func(path string) {
		ips.mu.Lock()
		ips.sigsDirty = true
		ips.mu.Unlock()
	})
	ips.recompileLocked()
	return ips
}

// Kind implements mbox.Logic.
func (i *IPS) Kind() string { return Kind }

// recompileLocked re-reads rules and tuning from the config tree. Callers
// hold i.mu (or are the constructor).
func (i *IPS) recompileLocked() {
	i.sigsDirty = false
	i.sigs = i.sigs[:0]
	entries, err := i.config.Export("rules")
	if err == nil {
		for _, e := range entries {
			for _, rule := range e.Values {
				sig, err := parseSignature(e.Path, rule)
				if err != nil {
					continue // malformed rules are skipped, not fatal
				}
				i.sigs = append(i.sigs, sig)
			}
		}
		sort.Slice(i.sigs, func(a, b int) bool { return i.sigs[a].name < i.sigs[b].name })
	}
	if v, err := i.config.Get("scan/port_threshold"); err == nil && len(v) == 1 {
		var thr int
		if _, err := fmt.Sscanf(v[0], "%d", &thr); err == nil && thr > 0 {
			i.scans.PortThreshold = thr
		}
	}
}

func (i *IPS) table(proto uint8) map[packet.FlowID]*Conn {
	t, ok := i.tables[proto]
	if !ok {
		t = map[packet.FlowID]*Conn{}
		i.tables[proto] = t
	}
	return t
}

// ipsEffect records one packet's out-of-lock side effects from a burst: log
// lines and the termination raise must run outside i.mu, so ProcessBurst
// collects them and replays after the lock in packet order. The steady state
// (no alerts, no terminations) appends nothing.
type ipsEffect struct {
	idx        int
	key        packet.FlowID
	logLines   []string
	httpLines  []string
	terminated bool
}

// ProcessBurst implements mbox.Logic: the Bro packet path. Each packet
// updates its connection and analyzer tree, evaluates signatures, feeds the
// scan detector, and is forwarded unless a drop rule fired. One mutex
// acquisition and at most one signature recompilation cover the whole burst.
// Emits are buffered by the runtime, so they are appended in-loop under the
// lock in packet order.
func (i *IPS) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var effects []ipsEffect
	i.mu.Lock()
	if i.sigsDirty {
		i.recompileLocked()
	}
	for idx, p := range pkts {
		ctx := &ctxs[idx]
		key, logLines, httpLines, drop, terminated := i.processLocked(ctx, p)
		if !drop {
			ctx.Emit(p)
		}
		if len(logLines) > 0 || len(httpLines) > 0 || terminated {
			effects = append(effects, ipsEffect{idx: idx, key: key, logLines: logLines, httpLines: httpLines, terminated: terminated})
		}
	}
	i.mu.Unlock()
	for _, e := range effects {
		ctx := &ctxs[e.idx]
		for _, line := range e.httpLines {
			ctx.Log("http", line)
		}
		for _, line := range e.logLines {
			if strings.HasPrefix(line, "sig ") || strings.HasPrefix(line, "scan ") {
				ctx.Log("alert", line)
			} else {
				ctx.Log("conn", line)
			}
		}
		if e.terminated {
			ctx.RaiseIntrospection("ips.conn.closed", e.key, nil)
		}
	}
}

// processLocked is ProcessBurst's per-packet Bro path. Caller holds i.mu and
// has already handled lazy signature recompilation. The flow's canonical ID,
// log lines and the termination flag are returned for the caller to act on
// outside the lock.
func (i *IPS) processLocked(ctx *mbox.Context, p *packet.Packet) (key packet.FlowID, logLines, httpLines []string, drop, terminated bool) {
	flow := p.FlowID()
	key, _ = flow.Canonical()
	if !ctx.SkipPerflow() {
		tbl := i.table(p.Proto)
		conn, ok := tbl[key]
		if !ok {
			conn = newConn(flow, p.Timestamp)
			tbl[key] = conn
			i.index.InsertID(key)
			// A new flow opening feeds the scan detector (shared
			// supporting state).
			if p.Proto == packet.ProtoTCP && p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 && !ctx.SkipShared() {
				if i.scans.observe(p.SrcIP, p.DstIP, p.DstPort) {
					i.report.ScanAlerts++
					logLines = append(logLines, fmt.Sprintf("scan src=%s distinct_ports>=%d", p.SrcIP, i.scans.PortThreshold))
				}
				ctx.TouchShared(state.Supporting)
				ctx.TouchShared(state.Reporting)
			}
		}
		fromOrig := flow == conn.orig
		terminated = conn.update(p, fromOrig)

		// Signature evaluation.
		for _, sig := range i.sigs {
			if sig.match(p.Proto, p.DstPort, p.Payload) {
				conn.SigMatches++
				if !ctx.SkipShared() {
					i.report.Alerts++
					ctx.TouchShared(state.Reporting)
				}
				logLines = append(logLines, fmt.Sprintf("sig rule=%s msg=%q flow=%s", sig.name, sig.msg, conn.Key))
				if sig.action == "drop" {
					drop = true
					if !ctx.SkipShared() {
						i.report.Dropped++
					}
				}
			}
		}

		// HTTP analyzer: attach on port-80 TCP traffic.
		if p.Proto == packet.ProtoTCP && (conn.Key.DstPort == 80 || conn.Key.SrcPort == 80) {
			if conn.HTTP == nil {
				conn.HTTP = &HTTPAnalyzer{}
			}
			if len(p.Payload) > 0 {
				toServer := fromOrig == (conn.Key.DstPort == 80)
				if toServer {
					conn.HTTP.feedOrig(p.Payload)
				} else {
					for _, e := range conn.HTTP.feedResp(p.Payload) {
						httpLines = append(httpLines, fmt.Sprintf("%s %s %s status=%d host=%s",
							conn.Key, e.Req.Method, e.Req.URI, e.Status, e.Req.Host))
					}
				}
			}
		}

		ctx.Touch(state.Supporting, key)
		if terminated {
			logLines = append(logLines, conn.logLine())
			delete(tbl, key)
			i.index.RemoveID(key)
			if !ctx.SkipShared() {
				i.report.ConnsLogged++
				ctx.TouchShared(state.Reporting)
			}
		}
	} else if p.Proto == packet.ProtoTCP && p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
		// Shared-transaction replay: only the scan detector (shared
		// supporting state) updates; set semantics make repeated
		// observations idempotent.
		if i.scans.observe(p.SrcIP, p.DstIP, p.DstPort) {
			i.report.ScanAlerts++
		}
		ctx.TouchShared(state.Supporting)
	}
	return key, logLines, httpLines, drop, terminated
}

// SweepIdle logs and removes connections idle since before cutoff (trace
// timestamp). Abrupt terminations keep their in-progress state (S0/S1/OTH),
// which is how the snapshot experiment's "incorrect entries" manifest: a
// migrated flow that terminates abruptly at the wrong instance logs a
// non-SF entry. Returns the log lines emitted.
func (i *IPS) SweepIdle(cutoff int64, log func(stream, line string)) []string {
	i.mu.Lock()
	var lines []string
	for _, tbl := range i.tables {
		for k, conn := range tbl {
			if conn.Last < cutoff {
				lines = append(lines, conn.logLine())
				delete(tbl, k)
				i.index.RemoveID(k)
				i.report.ConnsLogged++
			}
		}
	}
	i.mu.Unlock()
	sort.Strings(lines)
	if log != nil {
		for _, l := range lines {
			log("conn", l)
		}
	}
	return lines
}

// FlushAll logs and removes every live connection (Bro's exit-time flush),
// in deterministic order. Returns the log lines.
func (i *IPS) FlushAll(log func(stream, line string)) []string {
	return i.SweepIdle(int64(^uint64(0)>>1), log)
}

// GetPerflow implements mbox.Logic: collect the matching keys — via the
// flow index for prefix-constrained matches, else a linear scan over the
// connection tables — then serialize each matching connection's full
// analyzer tree under a short lock (the per-Connection mutex of §7).
func (i *IPS) GetPerflow(class state.Class, match packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	if class != state.Supporting {
		return nil // Bro's movable per-flow state is supporting state
	}
	i.mu.Lock()
	keys, ok := i.index.LookupIDs(match)
	if !ok {
		im := match.ForID()
		for _, tbl := range i.tables {
			for k := range tbl {
				if im.MatchEither(k) {
					keys = append(keys, k)
				}
			}
		}
	}
	i.mu.Unlock()
	packet.SortIDs(keys)
	for _, key := range keys {
		err := emit(key.Key(), func(mark func()) ([]byte, error) {
			i.mu.Lock()
			defer i.mu.Unlock()
			mark()
			conn, ok := i.table(key.Proto())[key]
			if !ok {
				conn = newConn(key, 0)
				conn.State = StateMOVED
			}
			conn.KeyS = conn.Key.String()
			return json.Marshal(conn)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PutPerflow implements mbox.Logic: install a connection moved from a peer.
// If the flow already exists here (it started while the move was in flight),
// the peer's record is authoritative for structure; endpoint counters sum.
func (i *IPS) PutPerflow(class state.Class, c state.Chunk) error {
	if class != state.Supporting {
		return fmt.Errorf("ips: no per-flow %v state", class)
	}
	var conn Conn
	if err := json.Unmarshal(c.Blob, &conn); err != nil {
		return fmt.Errorf("ips: decode connection: %w", err)
	}
	key, err := packet.ParseFlowKey(conn.KeyS)
	if err != nil {
		return fmt.Errorf("ips: decode connection key: %w", err)
	}
	orig, ok := key.ID()
	if !ok {
		return fmt.Errorf("ips: connection key %s is not IPv4", key)
	}
	conn.Key, conn.orig = key, orig
	canon, _ := orig.Canonical()
	i.mu.Lock()
	defer i.mu.Unlock()
	tbl := i.table(canon.Proto())
	if existing, ok := tbl[canon]; ok {
		conn.Orig.Packets += existing.Orig.Packets
		conn.Orig.Bytes += existing.Orig.Bytes
		conn.Resp.Packets += existing.Resp.Packets
		conn.Resp.Bytes += existing.Resp.Bytes
		if existing.Start < conn.Start {
			conn.Start = existing.Start
		}
		if existing.Last > conn.Last {
			conn.Last = existing.Last
		}
		conn.SigMatches += existing.SigMatches
	}
	tbl[canon] = &conn
	i.index.InsertID(canon)
	return nil
}

// DelPerflow implements mbox.Logic: silent removal — no conn.log entries
// (the moved flag of §7).
func (i *IPS) DelPerflow(class state.Class, match packet.FieldMatch) (int, error) {
	if class != state.Supporting {
		return 0, nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	im := match.ForID()
	n := 0
	for _, tbl := range i.tables {
		for k := range tbl {
			if im.MatchEither(k) {
				delete(tbl, k)
				i.index.RemoveID(k)
				n++
			}
		}
	}
	return n, nil
}

// GetShared implements mbox.Logic: the scan tracker (supporting) or the
// alert counters (reporting).
func (i *IPS) GetShared(class state.Class, mark func()) ([]byte, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	mark()
	switch class {
	case state.Supporting:
		return i.scans.marshal()
	case state.Reporting:
		return json.Marshal(i.report)
	}
	return nil, fmt.Errorf("ips: no shared %v state", class)
}

// PutShared implements mbox.Logic with MB-specific merge semantics: scan
// records union; report counters sum.
func (i *IPS) PutShared(class state.Class, blob []byte) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	switch class {
	case state.Supporting:
		return i.scans.mergeFrom(blob)
	case state.Reporting:
		var other reportCounters
		if err := json.Unmarshal(blob, &other); err != nil {
			return err
		}
		i.report.Alerts += other.Alerts
		i.report.Dropped += other.Dropped
		i.report.ConnsLogged += other.ConnsLogged
		i.report.ScanAlerts += other.ScanAlerts
		return nil
	}
	return fmt.Errorf("ips: no shared %v state", class)
}

// Stats implements mbox.Logic.
func (i *IPS) Stats(match packet.FieldMatch) sbi.StatsReply {
	i.mu.Lock()
	defer i.mu.Unlock()
	var s sbi.StatsReply
	im := match.ForID()
	for _, tbl := range i.tables {
		for k, conn := range tbl {
			if im.MatchEither(k) {
				s.SupportPerflowChunks++
				if b, err := json.Marshal(conn); err == nil {
					s.SupportPerflowBytes += len(b)
				}
			}
		}
	}
	if b, err := i.scans.marshal(); err == nil {
		s.SupportSharedBytes = len(b)
	}
	if b, err := json.Marshal(i.report); err == nil {
		s.ReportSharedBytes = len(b)
	}
	return s
}

// Config implements mbox.Logic.
func (i *IPS) Config() *state.ConfigTree { return i.config }

// ConnCount returns the number of live connections.
func (i *IPS) ConnCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, tbl := range i.tables {
		n += len(tbl)
	}
	return n
}

// Connection returns a copy of the live connection for key, if present.
func (i *IPS) Connection(key packet.FlowKey) (Conn, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	id, _ := key.Canonical().ID()
	conn, ok := i.table(id.Proto())[id]
	if !ok {
		return Conn{}, false
	}
	cp := *conn
	return cp, true
}

// Report returns a copy of the shared reporting counters.
func (i *IPS) Report() (alerts, dropped, connsLogged, scanAlerts uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.report.Alerts, i.report.Dropped, i.report.ConnsLogged, i.report.ScanAlerts
}

// ScanSources returns the tracked scan sources, for tests.
func (i *IPS) ScanSources() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.scans.sortedSources()
}
