// Package re implements a SmartRE-like redundancy elimination encoder and
// decoder pair (§6.1, §7 of the paper). The encoder replaces redundant
// payload regions with small shims referencing a packet cache; the decoder
// reconstructs payloads from its own, position-synchronized cache.
//
// Both middleboxes rely solely on SHARED SUPPORTING state (the cache), the
// state class whose clone/merge semantics motivate cloneSupport: a migrated
// decoder needs the cache contents to decode in-flight traffic, and the
// encoder maintains one cache per decoder ("We assume the encoder maintains
// a separate packet cache and fingerprint table for each decoder").
//
// Configuration follows the paper's migration recipe (§6.1): writing
// "NumCaches" [n] makes the encoder clone its cache for a new decoder and
// mirror inserts into all caches; writing "CacheFlows" [prefix0 prefix1 ...]
// assigns destination prefixes to caches and stops mirroring.
package re

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Middlebox type names.
const (
	EncoderKind = "re-encoder"
	DecoderKind = "re-decoder"
)

var (
	_ mbox.Logic = (*Encoder)(nil)
	_ mbox.Logic = (*Decoder)(nil)
)

// DefaultCacheSize is the default ring capacity (the paper uses 500 MB;
// experiments here scale it down).
const DefaultCacheSize = 1 << 22 // 4 MiB

// reportStats is the shared reporting state of either end.
type reportStats struct {
	InputBytes  uint64
	OutputBytes uint64
	MatchBytes  uint64
	Matches     uint64
	// Decoder only.
	UndecodableBytes uint64
	Failures         uint64
}

const reportWireSize = 6 * 8

func (r *reportStats) marshal() []byte {
	b := make([]byte, reportWireSize)
	for i, v := range []uint64{r.InputBytes, r.OutputBytes, r.MatchBytes, r.Matches, r.UndecodableBytes, r.Failures} {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func (r *reportStats) unmarshalAdd(b []byte) error {
	if len(b) < reportWireSize {
		return fmt.Errorf("re: short report blob (%d bytes)", len(b))
	}
	r.InputBytes += binary.BigEndian.Uint64(b[0:])
	r.OutputBytes += binary.BigEndian.Uint64(b[8:])
	r.MatchBytes += binary.BigEndian.Uint64(b[16:])
	r.Matches += binary.BigEndian.Uint64(b[24:])
	r.UndecodableBytes += binary.BigEndian.Uint64(b[32:])
	r.Failures += binary.BigEndian.Uint64(b[40:])
	return nil
}

// Encoder is the RE encoder middlebox logic.
type Encoder struct {
	mu       sync.Mutex
	caches   []*Cache
	prefixes []netip.Prefix // prefixes[i] routes to caches[i]; empty = all to 0
	mirror   bool
	report   reportStats
	config   *state.ConfigTree
	dirty    bool
	capacity int
}

// NewEncoder returns an encoder with one cache of the given capacity
// (0 means DefaultCacheSize).
func NewEncoder(capacity int) *Encoder {
	if capacity == 0 {
		capacity = DefaultCacheSize
	}
	e := &Encoder{
		caches:   []*Cache{NewCache(capacity)},
		config:   state.NewConfigTree(),
		capacity: capacity,
	}
	if err := e.config.Set("NumCaches", []string{"1"}); err != nil {
		panic("re: default config: " + err.Error())
	}
	e.config.Watch(func(string) {
		e.mu.Lock()
		e.dirty = true
		e.mu.Unlock()
	})
	return e
}

// Kind implements mbox.Logic.
func (e *Encoder) Kind() string { return EncoderKind }

// applyConfigLocked folds configuration changes into encoder state.
func (e *Encoder) applyConfigLocked() {
	e.dirty = false
	if v, err := e.config.Get("NumCaches"); err == nil && len(v) == 1 {
		var n int
		if _, err := fmt.Sscanf(v[0], "%d", &n); err == nil && n > len(e.caches) && n <= 64 {
			// Clone the primary cache for each new decoder and
			// mirror inserts until CacheFlows splits traffic
			// ("Internally, the encoder will clone its original
			// cache to create a new second cache", §6.1).
			for len(e.caches) < n {
				e.caches = append(e.caches, e.caches[0].Clone())
			}
			e.mirror = true
		}
	}
	if v, err := e.config.Get("CacheFlows"); err == nil && len(v) > 0 {
		prefixes := make([]netip.Prefix, 0, len(v))
		ok := true
		for _, s := range v {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				ok = false
				break
			}
			prefixes = append(prefixes, p)
		}
		if ok {
			e.prefixes = prefixes
			e.mirror = false
		}
	}
}

// cacheFor selects the cache for a destination address.
func (e *Encoder) cacheFor(dst netip.Addr) *Cache {
	for i, p := range e.prefixes {
		if i < len(e.caches) && p.Contains(dst) {
			return e.caches[i]
		}
	}
	return e.caches[0]
}

// ProcessBurst implements mbox.Logic: encode each payload against the cache
// for the packet's destination and forward the encoded packet. One mutex
// acquisition and at most one config re-parse cover the whole burst, and the
// single-cache insert list is a reused stack buffer instead of a fresh slice
// per packet. Emits are buffered by the runtime, so they are appended in-loop
// under the lock in packet order.
func (e *Encoder) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	var single [1]*Cache
	e.mu.Lock()
	if e.dirty {
		e.applyConfigLocked()
	}
	for i, p := range pkts {
		ctx := &ctxs[i]
		if len(p.Payload) == 0 || ctx.SkipShared() {
			ctx.Emit(p)
			continue
		}
		cache := e.cacheFor(p.DstIP)
		insertInto := e.caches
		if !e.mirror {
			single[0] = cache
			insertInto = single[:]
		}
		encoded, st := encode(p.Payload, cache, insertInto)
		e.report.InputBytes += uint64(len(p.Payload))
		e.report.OutputBytes += uint64(len(encoded))
		e.report.MatchBytes += st.MatchBytes
		e.report.Matches += st.Matches
		ctx.TouchShared(state.Supporting)
		ctx.TouchShared(state.Reporting)
		out := p.Clone()
		out.Payload = encoded
		ctx.Emit(out)
	}
	e.mu.Unlock()
}

// GetShared implements mbox.Logic: all caches (supporting) or the
// counters (reporting).
func (e *Encoder) GetShared(class state.Class, mark func()) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	mark()
	switch class {
	case state.Supporting:
		out := binary.BigEndian.AppendUint16(nil, uint16(len(e.caches)))
		for _, c := range e.caches {
			blob := c.Marshal()
			out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
			out = append(out, blob...)
		}
		return out, nil
	case state.Reporting:
		return e.report.marshal(), nil
	}
	return nil, mbox.ErrNoSharedState
}

// PutShared implements mbox.Logic: supporting state replaces the cache set;
// reporting counters sum.
func (e *Encoder) PutShared(class state.Class, blob []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch class {
	case state.Supporting:
		if len(blob) < 2 {
			return fmt.Errorf("re: short encoder cache blob")
		}
		n := int(binary.BigEndian.Uint16(blob[:2]))
		rest := blob[2:]
		caches := make([]*Cache, 0, n)
		for i := 0; i < n; i++ {
			if len(rest) < 4 {
				return fmt.Errorf("re: truncated encoder cache set")
			}
			sz := binary.BigEndian.Uint32(rest[:4])
			rest = rest[4:]
			if uint32(len(rest)) < sz {
				return fmt.Errorf("re: truncated encoder cache %d", i)
			}
			c, err := UnmarshalCache(rest[:sz])
			if err != nil {
				return err
			}
			caches = append(caches, c)
			rest = rest[sz:]
		}
		if len(caches) == 0 {
			return fmt.Errorf("re: empty encoder cache set")
		}
		e.caches = caches
		return nil
	case state.Reporting:
		return e.report.unmarshalAdd(blob)
	}
	return mbox.ErrNoSharedState
}

// Stats implements mbox.Logic.
func (e *Encoder) Stats(packet.FieldMatch) sbi.StatsReply {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s sbi.StatsReply
	for _, c := range e.caches {
		s.SupportSharedBytes += c.Capacity() + c.FPCount()*20
	}
	s.ReportSharedBytes = reportWireSize
	return s
}

// Config implements mbox.Logic.
func (e *Encoder) Config() *state.ConfigTree { return e.config }

// Report returns a copy of the encoder's counters.
func (e *Encoder) Report() (input, output, matchBytes, matches uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.report.InputBytes, e.report.OutputBytes, e.report.MatchBytes, e.report.Matches
}

// Decoder is the RE decoder middlebox logic.
type Decoder struct {
	mu     sync.Mutex
	cache  *Cache
	report reportStats
	config *state.ConfigTree
}

// NewDecoder returns a decoder with a cache of the given capacity
// (0 means DefaultCacheSize).
func NewDecoder(capacity int) *Decoder {
	if capacity == 0 {
		capacity = DefaultCacheSize
	}
	d := &Decoder{cache: NewCache(capacity), config: state.NewConfigTree()}
	if err := d.config.Set("CacheSize", []string{fmt.Sprint(capacity)}); err != nil {
		panic("re: default config: " + err.Error())
	}
	return d
}

// Kind implements mbox.Logic.
func (d *Decoder) Kind() string { return DecoderKind }

// ProcessBurst implements mbox.Logic: reconstruct encoded payloads and
// forward the original packets; non-encoded packets pass through. One mutex
// acquisition covers the whole burst. Emits are buffered by the runtime, so
// they are appended in-loop under the lock in packet order.
func (d *Decoder) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	d.mu.Lock()
	for i, p := range pkts {
		ctx := &ctxs[i]
		if !IsEncoded(p.Payload) {
			ctx.Emit(p)
			continue
		}
		if ctx.SkipShared() {
			continue
		}
		payload, st, err := decode(p.Payload, d.cache)
		d.report.InputBytes += uint64(len(p.Payload))
		d.report.OutputBytes += uint64(len(payload))
		d.report.MatchBytes += st.MatchBytes
		d.report.Matches += st.Matches
		d.report.UndecodableBytes += st.UndecodableBytes
		d.report.Failures += st.Failures
		ctx.TouchShared(state.Supporting)
		ctx.TouchShared(state.Reporting)
		if err != nil {
			continue // malformed encoding: drop
		}
		out := p.Clone()
		out.Payload = payload
		ctx.Emit(out)
	}
	d.mu.Unlock()
}

// GetShared implements mbox.Logic.
func (d *Decoder) GetShared(class state.Class, mark func()) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mark()
	switch class {
	case state.Supporting:
		return d.cache.Marshal(), nil
	case state.Reporting:
		return d.report.marshal(), nil
	}
	return nil, mbox.ErrNoSharedState
}

// PutShared implements mbox.Logic: an empty cache adopts the incoming one
// (clone); a non-empty cache merges by hit count (consolidation).
func (d *Decoder) PutShared(class state.Class, blob []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch class {
	case state.Supporting:
		return d.cache.MergeFrom(blob)
	case state.Reporting:
		return d.report.unmarshalAdd(blob)
	}
	return mbox.ErrNoSharedState
}

// Stats implements mbox.Logic.
func (d *Decoder) Stats(packet.FieldMatch) sbi.StatsReply {
	d.mu.Lock()
	defer d.mu.Unlock()
	return sbi.StatsReply{
		SupportSharedBytes: d.cache.Capacity() + d.cache.FPCount()*20,
		ReportSharedBytes:  reportWireSize,
	}
}

// Config implements mbox.Logic.
func (d *Decoder) Config() *state.ConfigTree { return d.config }

// Report returns a copy of the decoder's counters.
func (d *Decoder) Report() (decodedMatch, undecodable, failures uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.report.MatchBytes, d.report.UndecodableBytes, d.report.Failures
}

// CachePos returns the decoder cache's absolute insert position (for
// synchronization checks in tests).
func (d *Decoder) CachePos() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cache.InsertPos()
}
