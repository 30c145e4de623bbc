package nat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/state"
)

func inPkt(extPort uint16, ts int64) *packet.Packet {
	return &packet.Packet{
		SrcIP: netip.MustParseAddr("8.8.8.8"), DstIP: extIP,
		Proto: packet.ProtoTCP, SrcPort: 443, DstPort: extPort,
		Payload: []byte("resp"), Timestamp: ts,
	}
}

func mappingBlob(extPort uint16, created int64) []byte {
	b := make([]byte, mappingWireSize)
	binary.BigEndian.PutUint16(b[0:2], extPort)
	binary.BigEndian.PutUint64(b[2:10], uint64(created))
	return b
}

func hostKey(srcLast byte, srcPort uint16) packet.FlowKey {
	return packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, srcLast}), SrcPort: srcPort, Proto: packet.ProtoTCP, DstIP: netip.AddrFrom4([4]byte{})}
}

// idOf is the table form of a reference-model key.
func idOf(k packet.FlowKey) packet.FlowID {
	id, _ := k.ID()
	return id
}

// TestImportedMappingNotBornExpired: a moved or failed-over mapping gets a
// full idle timeout at its new home, whatever epoch the trace's timestamps
// use — and then expires like any other.
func TestImportedMappingNotBornExpired(t *testing.T) {
	const timeout = int64(300e9)
	wall := time.Now().UnixNano()
	lookup := func(n *NAT) bool {
		_, ok := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1000, packet.ProtoTCP)
		return ok
	}
	put := func(n *NAT) {
		t.Helper()
		if err := n.PutPerflow(state.Supporting, state.Chunk{Key: hostKey(1, 1000), Blob: mappingBlob(30000, 7)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := mbox.NewBenchContext()

	// Imported before the NAT has seen a packet: idles from the first one.
	n := New(extIP)
	put(n)
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall))
	if !lookup(n) {
		t.Fatal("imported mapping expired by the first packet after import")
	}
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall+timeout))
	if !lookup(n) {
		t.Fatal("imported mapping expired before a full timeout had passed")
	}
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall+timeout+1))
	if lookup(n) {
		t.Fatal("imported mapping still live one timeout after the first packet")
	}

	// Imported into a NAT already carrying traffic: idles from the import.
	n = New(extIP)
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall))
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall+timeout/2))
	put(n)
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall+timeout/2+timeout))
	if !lookup(n) {
		t.Fatal("imported mapping expired before a full timeout after import")
	}
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, wall+timeout/2+timeout+1))
	if lookup(n) {
		t.Fatal("imported mapping still live one timeout after import")
	}
}

// TestLiveConfigChange: both knobs are cached off the packet path, so a
// change must reach the very next packet.
func TestLiveConfigChange(t *testing.T) {
	ctx := mbox.NewBenchContext()
	n := New(extIP)
	mbtest.ProcessOne(n, ctx, outPkt(1, 1000, 0))
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, 500))
	if n.MappingCount() != 2 {
		t.Fatalf("mappings: %d", n.MappingCount())
	}
	// Shrinking the timeout makes the head of the idle list overdue.
	if err := n.Config().Set("idle_timeout_ns", []string{"100"}); err != nil {
		t.Fatal(err)
	}
	mbtest.ProcessOne(n, ctx, outPkt(2, 2000, 550))
	if _, ok := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1000, packet.ProtoTCP); ok {
		t.Fatal("idle head survived a live idle_timeout_ns shrink")
	}
	if _, ok := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 2}), 2000, packet.ProtoTCP); !ok {
		t.Fatal("active mapping expired by the shrink")
	}
	// A bad value falls back to the 300 s default rather than to zero.
	if err := n.Config().Set("idle_timeout_ns", []string{"soon"}); err != nil {
		t.Fatal(err)
	}
	mbtest.ProcessOne(n, ctx, outPkt(3, 3000, 100000))
	if n.MappingCount() != 2 {
		t.Fatalf("bad idle_timeout_ns did not fall back to the default: %d mappings", n.MappingCount())
	}

	// Re-homing the internal prefix re-classifies the next packet.
	rt, out := runNAT(t, n)
	send := func(p *packet.Packet) *packet.Packet {
		t.Helper()
		before := len(*out)
		rt.HandlePacket(p)
		rt.Drain(5 * time.Second)
		if len(*out) != before+1 {
			t.Fatalf("forwarded %d packets, want 1", len(*out)-before)
		}
		return (*out)[before]
	}
	other := func() *packet.Packet {
		p := outPkt(9, 9000, 100001)
		p.SrcIP = netip.MustParseAddr("192.168.7.9")
		return p
	}
	if got := send(other()); got.SrcIP == extIP {
		t.Fatal("192.168.7.9 translated under the default internal prefix")
	}
	if err := n.Config().Set("internal_prefix", []string{"192.168.0.0/16"}); err != nil {
		t.Fatal(err)
	}
	if got := send(other()); got.SrcIP != extIP {
		t.Fatal("192.168.7.9 not translated after internal_prefix moved to 192.168.0.0/16")
	}
	if got := send(outPkt(4, 4000, 100002)); got.SrcIP == extIP {
		t.Fatal("10.0.0.4 still translated after internal_prefix moved away from 10/8")
	}
}

func TestUnmappedInboundCounted(t *testing.T) {
	ctx := mbox.NewBenchContext()
	n := New(extIP)
	mbtest.ProcessOne(n, ctx, outPkt(1, 1000, 0))
	mbtest.ProcessOne(n, ctx, inPkt(firstPort, 1))
	mbtest.ProcessOne(n, ctx, inPkt(33333, 2))
	mbtest.ProcessOne(n, ctx, inPkt(33334, 3))
	if d := n.Drops(); d != (Drops{NoMapping: 2}) {
		t.Fatalf("drops: %+v, want 2 NoMapping", d)
	}
}

// TestPortExhaustion fills the whole external port pool: further new flows
// drop, counted and without probing the pool; once idle expiry frees the
// ports they are allocatable again.
func TestPortExhaustion(t *testing.T) {
	ctx := mbox.NewBenchContext()
	n := New(extIP)
	if err := n.Config().Set("idle_timeout_ns", []string{"1000"}); err != nil {
		t.Fatal(err)
	}
	flow := func(i int, ts int64) *packet.Packet { return outPkt(1, uint16(i), ts) }
	for i := 0; i < portPoolSize; i++ {
		mbtest.ProcessOne(n, ctx, flow(i, 0))
	}
	if n.MappingCount() != portPoolSize {
		t.Fatalf("mappings: %d, want the whole pool (%d)", n.MappingCount(), portPoolSize)
	}
	cursor := n.nextPort
	for i := 0; i < 3; i++ {
		mbtest.ProcessOne(n, ctx, flow(portPoolSize+i, 1))
	}
	if d := n.Drops(); d != (Drops{PortExhausted: 3}) {
		t.Fatalf("drops: %+v, want 3 PortExhausted", d)
	}
	if n.nextPort != cursor || n.MappingCount() != portPoolSize {
		t.Fatalf("exhausted allocation moved the cursor (%d -> %d) or the table (%d)", cursor, n.nextPort, n.MappingCount())
	}
	// An established flow is unaffected by the full pool.
	mbtest.ProcessOne(n, ctx, flow(5, 2))
	if d := n.Drops(); d.PortExhausted != 3 {
		t.Fatalf("established flow dropped on a full pool: %+v", d)
	}
	// Past the timeout everything but flow 5 (touched at 2) has expired.
	mbtest.ProcessOne(n, ctx, flow(portPoolSize, 1002))
	if n.MappingCount() != 2 {
		t.Fatalf("mappings after expiry: %d, want 2", n.MappingCount())
	}
	if _, ok := n.Lookup(netip.AddrFrom4([4]byte{10, 0, 0, 1}), uint16(portPoolSize), packet.ProtoTCP); !ok {
		t.Fatal("new flow not mapped after expiry freed the pool")
	}
	if d := n.Drops(); d.PortExhausted != 3 {
		t.Fatalf("drop after the pool was freed: %+v", d)
	}
	checkIdleList(t, n)
}

// checkIdleList asserts the idle list's invariants against the table and
// the port map.
func checkIdleList(t *testing.T, n *NAT) {
	t.Helper()
	n.Lock()
	defer n.Unlock()
	if err := idleListError(n); err != nil {
		t.Fatal(err)
	}
}

func idleListError(n *NAT) error {
	if n.Len() != len(n.byExtPort) {
		return fmt.Errorf("table has %d mappings, byExtPort %d", n.Len(), len(n.byExtPort))
	}
	if n.head != nil && n.head.prev != nil {
		return fmt.Errorf("head has a predecessor")
	}
	if n.tail != nil && n.tail.next != nil {
		return fmt.Errorf("tail has a successor")
	}
	count := 0
	var prev *mapping
	for m := n.head; m != nil; prev, m = m, m.next {
		if count++; count > n.Len() {
			return fmt.Errorf("idle list longer than the %d-entry table", n.Len())
		}
		if m.prev != prev {
			return fmt.Errorf("%s: prev link does not point at the predecessor", m.Internal)
		}
		if prev != nil && m.LastActive < prev.LastActive {
			return fmt.Errorf("%s: LastActive %d after %d: list out of order", m.Internal, m.LastActive, prev.LastActive)
		}
		if m.LastActive > n.now {
			return fmt.Errorf("%s: LastActive %d ahead of the clock %d", m.Internal, m.LastActive, n.now)
		}
		if tm, _ := n.Get(m.Internal); tm != m || n.byExtPort[m.ExtPort] != m {
			return fmt.Errorf("%s:%d on the idle list but not (or not the same mapping) in the table and port map", m.Internal, m.ExtPort)
		}
	}
	if prev != n.tail {
		return fmt.Errorf("tail is not the last list element")
	}
	if count != n.Len() {
		return fmt.Errorf("idle list has %d entries, table %d", count, n.Len())
	}
	return nil
}

// refNAT is the reference model: the same translation rules over plain maps,
// with idle expiry as a scan of every mapping (how the NAT itself did it
// before the idle list). Only the property test uses it.
type refNAT struct {
	byInternal map[packet.FlowKey]*refMapping
	byExtPort  map[uint16]packet.FlowKey
	now, start int64
	started    bool
	timeout    int64
	nextPort   uint16
	drops      Drops
}

type refMapping struct {
	extPort    uint16
	lastActive int64
}

// expiry names one expired (key, external port) pair, printable.
type expiry string

func expiredPair(key packet.FlowKey, extPort uint16) expiry {
	return expiry(fmt.Sprintf("%s->:%d", key, extPort))
}

func newRefNAT() *refNAT {
	return &refNAT{
		byInternal: map[packet.FlowKey]*refMapping{},
		byExtPort:  map[uint16]packet.FlowKey{},
		timeout:    defaultIdleTimeout,
		nextPort:   firstPort,
	}
}

func (r *refNAT) expire(ts int64) map[expiry]bool {
	if ts > r.now {
		r.now = ts
	}
	if !r.started {
		r.started, r.start = true, r.now
	}
	expired := map[expiry]bool{}
	for key, m := range r.byInternal {
		if r.now-max(m.lastActive, r.start) > r.timeout {
			delete(r.byInternal, key)
			delete(r.byExtPort, m.extPort)
			expired[expiredPair(key, m.extPort)] = true
		}
	}
	return expired
}

func (r *refNAT) allocPort() (uint16, bool) {
	for tries := 0; tries < portPoolSize; tries++ {
		port := r.nextPort
		r.nextPort++
		if r.nextPort < firstPort {
			r.nextPort = firstPort
		}
		if _, used := r.byExtPort[port]; !used {
			return port, true
		}
	}
	return 0, false
}

// outbound returns the external port (ok=false: dropped).
func (r *refNAT) outbound(key packet.FlowKey, ts int64) (port uint16, ok, created bool, expired map[expiry]bool) {
	expired = r.expire(ts)
	m := r.byInternal[key]
	if m == nil {
		port, ok := r.allocPort()
		if !ok {
			r.drops.PortExhausted++
			return 0, false, false, expired
		}
		m = &refMapping{extPort: port}
		r.byInternal[key] = m
		r.byExtPort[port] = key
		created = true
	}
	m.lastActive = r.now
	return m.extPort, true, created, expired
}

func (r *refNAT) inbound(extPort uint16, ts int64) (key packet.FlowKey, ok bool, expired map[expiry]bool) {
	expired = r.expire(ts)
	key, ok = r.byExtPort[extPort]
	if !ok {
		r.drops.NoMapping++
		return key, false, expired
	}
	r.byInternal[key].lastActive = r.now
	return key, true, expired
}

func (r *refNAT) put(key packet.FlowKey, extPort uint16) bool {
	if holder, ok := r.byExtPort[extPort]; ok && holder != key {
		return false
	}
	if old := r.byInternal[key]; old != nil {
		delete(r.byExtPort, old.extPort)
	}
	r.byInternal[key] = &refMapping{extPort: extPort, lastActive: r.now}
	r.byExtPort[extPort] = key
	return true
}

func (r *refNAT) del(match packet.FieldMatch) int {
	count := 0
	for key, m := range r.byInternal {
		if match.MatchEither(key) {
			delete(r.byInternal, key)
			delete(r.byExtPort, m.extPort)
			count++
		}
	}
	return count
}

// TestIdleListMatchesScanReference drives seeded random operation sequences
// against the NAT and the scan reference and requires, after every step:
// the same live mappings (key, port, idle stamp), the same expiries raised,
// the same creation, verdict and rewrite for the packet, the same allocator
// cursor and drop counts, and an intact idle list.
func TestIdleListMatchesScanReference(t *testing.T) {
	const sequences, steps = 1500, 70
	for seed := int64(1); seed <= sequences; seed++ {
		if err := runIdleListSequence(seed, steps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runIdleListSequence(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	n, ref := New(extIP), newRefNAT()
	ctx := mbox.NewBenchContext()

	hosts := 4 + rng.Intn(10)
	key := func() packet.FlowKey { h := rng.Intn(hosts); return hostKey(byte(h), uint16(1000+h)) }
	// Half the sequences start with the allocator about to wrap.
	if rng.Intn(2) == 0 {
		cursor := uint16(65536 - 1 - rng.Intn(6))
		if err := n.PutShared(state.Supporting, binary.BigEndian.AppendUint16(nil, cursor)); err != nil {
			return err
		}
		ref.nextPort = cursor
	}
	// Ports the sequence puts and sends inbound traffic to: the first few the
	// allocator will hand out (so puts collide with it), and two it will not.
	port := func() uint16 {
		switch k := rng.Intn(hosts + 4); {
		case k == 0:
			return 65535
		case k == 1:
			return 40000
		default:
			return firstPort + uint16(k-2)
		}
	}
	setTimeout := func(v string) error {
		if err := n.Config().Set("idle_timeout_ns", []string{v}); err != nil {
			return err
		}
		ref.timeout = defaultIdleTimeout
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
			ref.timeout = ns
		}
		return nil
	}
	if err := setTimeout([]string{"50", "200", "1000"}[rng.Intn(3)]); err != nil {
		return err
	}
	// Timestamps on a zero-based or a wall-clock epoch.
	clock := []int64{0, 1_758_000_000_000_000_000}[rng.Intn(2)]

	for step := 0; step < steps; step++ {
		var desc string
		var gotExpired, wantExpired map[expiry]bool
		switch op := rng.Intn(100); {
		case op < 75: // a packet
			ts := clock
			switch k := rng.Intn(10); {
			case k < 6:
				clock += int64(rng.Intn(60))
				ts = clock
			case k < 8: // out of order
				ts = clock - int64(rng.Intn(300))
			case k < 9: // a gap longer than any timeout
				clock += 800 + int64(rng.Intn(600))
				ts = clock
			}
			var p *packet.Packet
			var wantOK, wantCreated bool
			var wantPort uint16
			var wantKey packet.FlowKey
			outbound := rng.Intn(3) > 0
			if outbound {
				wantKey = key()
				p = &packet.Packet{SrcIP: wantKey.SrcIP, SrcPort: wantKey.SrcPort, Proto: wantKey.Proto,
					DstIP: netip.MustParseAddr("8.8.8.8"), DstPort: 443, Timestamp: ts}
				wantPort, wantOK, wantCreated, wantExpired = ref.outbound(wantKey, ts)
				desc = fmt.Sprintf("outbound %s ts=%d", wantKey, ts)
			} else {
				p = inPkt(port(), ts)
				wantKey, wantOK, wantExpired = ref.inbound(p.DstPort, ts)
				desc = fmt.Sprintf("inbound :%d ts=%d", p.DstPort, ts)
			}
			n.Lock()
			out, raises := n.translateLocked(ctx, p, 0, nil)
			n.Unlock()
			gotExpired = map[expiry]bool{}
			gotCreated, expiredRaises := false, 0
			for i, r := range raises {
				switch {
				case r.code == "nat.mapping.expired":
					gotExpired[expiredPair(r.key.Key(), r.ext)] = true
					expiredRaises++
				case r.code == "nat.mapping.created" && i == len(raises)-1 && r.key == idOf(wantKey):
					gotCreated = true
				default:
					return fmt.Errorf("step %d (%s): unexpected raise %+v at %d of %d", step, desc, r, i, len(raises))
				}
			}
			if len(gotExpired) != expiredRaises {
				return fmt.Errorf("step %d (%s): a mapping expired twice: %+v", step, desc, raises)
			}
			if gotCreated != wantCreated {
				return fmt.Errorf("step %d (%s): created=%v, reference %v", step, desc, gotCreated, wantCreated)
			}
			if (out != nil) != wantOK {
				return fmt.Errorf("step %d (%s): emitted=%v, reference %v", step, desc, out != nil, wantOK)
			}
			if out != nil && outbound && (out.SrcIP != extIP || out.SrcPort != wantPort) {
				return fmt.Errorf("step %d (%s): rewritten to %s:%d, reference port %d", step, desc, out.SrcIP, out.SrcPort, wantPort)
			}
			if out != nil && !outbound && (out.DstIP != wantKey.SrcIP || out.DstPort != wantKey.SrcPort) {
				return fmt.Errorf("step %d (%s): rewritten to %s:%d, reference %s", step, desc, out.DstIP, out.DstPort, wantKey)
			}
		case op < 87: // import, often over an existing key or a bound port
			k, extPort := key(), port()
			desc = fmt.Sprintf("put %s -> :%d", k, extPort)
			err := n.PutPerflow(state.Supporting, state.Chunk{Key: k, Blob: mappingBlob(extPort, 1)})
			if want := ref.put(k, extPort); (err == nil) != want {
				return fmt.Errorf("step %d (%s): err=%v, reference accepted=%v", step, desc, err, want)
			}
		case op < 94:
			m := packet.MatchAll
			if rng.Intn(4) > 0 {
				m = packet.FieldMatch{SrcPrefix: netip.PrefixFrom(key().SrcIP, 31+rng.Intn(2)).Masked()}
			}
			desc = fmt.Sprintf("del %s", m)
			got, err := mbox.DelPerflow(n, state.Supporting, m)
			if want := ref.del(m); err != nil || got != want {
				return fmt.Errorf("step %d (%s): deleted %d (err %v), reference %d", step, desc, got, err, want)
			}
		default:
			v := []string{"50", "200", "1000", "never"}[rng.Intn(4)]
			desc = "idle_timeout_ns=" + v
			if err := setTimeout(v); err != nil {
				return err
			}
		}

		if len(gotExpired) != len(wantExpired) {
			return fmt.Errorf("step %d (%s): expired %v, reference %v", step, desc, gotExpired, wantExpired)
		}
		for e := range wantExpired {
			if !gotExpired[e] {
				return fmt.Errorf("step %d (%s): expired %v, reference %v", step, desc, gotExpired, wantExpired)
			}
		}
		n.Lock()
		err := idleListError(n)
		if err == nil && n.Len() != len(ref.byInternal) {
			err = fmt.Errorf("%d live mappings, reference %d", n.Len(), len(ref.byInternal))
		}
		for k, want := range ref.byInternal {
			if err != nil {
				break
			}
			if m, _ := n.Get(idOf(k)); m == nil || m.ExtPort != want.extPort || m.LastActive != want.lastActive {
				err = fmt.Errorf("mapping %s = %+v, reference %+v", k, m, *want)
			}
		}
		if err == nil && (n.nextPort != ref.nextPort || n.drops != ref.drops) {
			err = fmt.Errorf("cursor %d drops %+v, reference cursor %d drops %+v", n.nextPort, n.drops, ref.nextPort, ref.drops)
		}
		n.Unlock()
		if err != nil {
			return fmt.Errorf("step %d (%s): %v", step, desc, err)
		}
	}
	return nil
}
