package packet

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
)

// FieldMatch is the HeaderFieldList of the OpenMB APIs: a conjunction of
// header-field predicates naming a set of flows. An empty FieldMatch matches
// every flow (the paper's moveInternal(Prads2,Prads1,[]) uses this to move
// all per-flow state).
//
// Each field is optional; unset fields are wildcards. IP fields accept CIDR
// prefixes, so "nw_src=1.1.1.0/24" from §6.2 is SrcPrefix 1.1.1.0/24.
type FieldMatch struct {
	SrcPrefix netip.Prefix // zero value = wildcard
	DstPrefix netip.Prefix
	Proto     uint8 // 0 = wildcard
	SrcPort   uint16
	DstPort   uint16
	// HasSrcPort/HasDstPort disambiguate "port 0" from "wildcard"; the
	// scenarios in the paper never match port 0, but the API must.
	HasSrcPort bool
	HasDstPort bool
}

// MatchAll is the empty match; it matches every flow.
var MatchAll = FieldMatch{}

// MatchEither reports whether the match covers the flow in either direction.
// Connection-oriented middleboxes key state canonically, so a request that
// names the client->server direction must also select the reverse direction.
func (m FieldMatch) MatchEither(k FlowKey) bool {
	id, ok := k.ID()
	return ok && m.ForID().MatchEither(id)
}

// IDMatch is a FieldMatch lowered onto FlowID's two words: each prefix, port
// and the protocol become bits of a mask and the value expected under it, so
// evaluating the match is two masked compares. Table scans and per-packet
// filters lower the match once (ForID) and evaluate it per entry.
type IDMatch struct{ srcMask, srcWant, dstMask, dstWant uint64 }

// ForID lowers the match for evaluation on FlowIDs.
func (m FieldMatch) ForID() IDMatch {
	var im IDMatch
	im.srcMask, im.srcWant = lowerEndpoint(m.SrcPrefix, m.SrcPort, m.HasSrcPort)
	im.dstMask, im.dstWant = lowerEndpoint(m.DstPrefix, m.DstPort, m.HasDstPort)
	if m.Proto != 0 {
		im.dstMask |= 0xff
		im.dstWant |= uint64(m.Proto)
	}
	return im
}

func lowerEndpoint(p netip.Prefix, port uint16, hasPort bool) (mask, want uint64) {
	if p.IsValid() {
		a, ok := addr4(p.Addr())
		if !ok {
			// A non-IPv4 prefix contains no IPv4 address: expect a bit no
			// endpoint word has.
			return 0, 1 << 63
		}
		mask = uint64(^uint32(0)<<(32-p.Bits())) << 24
		want = uint64(a) << 24 & mask
	}
	if hasPort {
		mask |= 0xffff << 8
		want |= uint64(port) << 8
	}
	return mask, want
}

// Match reports whether id satisfies every set predicate.
func (im IDMatch) Match(id FlowID) bool {
	return id.src&im.srcMask == im.srcWant && id.dst&im.dstMask == im.dstWant
}

// MatchEither is Match on id or its reverse.
func (im IDMatch) MatchEither(id FlowID) bool { return im.Match(id) || im.Match(id.Reverse()) }

// OverlapsEither reports whether some ID satisfies both im.MatchEither and
// o.MatchEither: im agrees on every bit both constrain with o, or with o
// reversed (Reverse applied to the masks).
func (im IDMatch) OverlapsEither(o IDMatch) bool {
	meets := func(o IDMatch) bool {
		return (im.srcWant^o.srcWant)&im.srcMask&o.srcMask == 0 && (im.dstWant^o.dstWant)&im.dstMask&o.dstMask == 0
	}
	return meets(o) || meets(IDMatch{o.dstMask &^ 0xff, o.dstWant &^ 0xff, o.srcMask | o.dstMask&0xff, o.srcWant | o.dstWant&0xff})
}

// IsAll reports whether the match is the full wildcard.
func (m FieldMatch) IsAll() bool {
	return !m.SrcPrefix.IsValid() && !m.DstPrefix.IsValid() && m.Proto == 0 && !m.HasSrcPort && !m.HasDstPort
}

// ConstrainsDst reports whether the match restricts destination IP or port.
// Middleboxes like a load balancer, which key per-flow state only by source
// endpoint, treat destination constraints as finer-than-supported requests.
func (m FieldMatch) ConstrainsDst() bool {
	return m.DstPrefix.IsValid() || m.HasDstPort
}

// String renders the match in the paper's "nw_src=1.1.1.0/24" style.
func (m FieldMatch) String() string {
	if m.IsAll() {
		return "[*]"
	}
	var parts []string
	if m.SrcPrefix.IsValid() {
		parts = append(parts, "nw_src="+m.SrcPrefix.String())
	}
	if m.DstPrefix.IsValid() {
		parts = append(parts, "nw_dst="+m.DstPrefix.String())
	}
	if m.Proto != 0 {
		parts = append(parts, "nw_proto="+protoName(m.Proto))
	}
	if m.HasSrcPort {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.SrcPort))
	}
	if m.HasDstPort {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.DstPort))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// ParseFieldMatch parses the String form: a comma-separated list of
// field=value pairs, optionally wrapped in brackets. "[*]", "[]", "*" and ""
// all denote the full wildcard.
func ParseFieldMatch(s string) (FieldMatch, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	s = strings.TrimSpace(s)
	if s == "" || s == "*" {
		return FieldMatch{}, nil
	}
	var m FieldMatch
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return FieldMatch{}, fmt.Errorf("packet: bad match field %q", part)
		}
		key, val := kv[0], kv[1]
		switch key {
		case "nw_src":
			p, err := parsePrefix(val)
			if err != nil {
				return FieldMatch{}, fmt.Errorf("packet: nw_src: %w", err)
			}
			m.SrcPrefix = p
		case "nw_dst":
			p, err := parsePrefix(val)
			if err != nil {
				return FieldMatch{}, fmt.Errorf("packet: nw_dst: %w", err)
			}
			m.DstPrefix = p
		case "nw_proto":
			switch val {
			case "tcp":
				m.Proto = ProtoTCP
			case "udp":
				m.Proto = ProtoUDP
			case "icmp":
				m.Proto = ProtoICMP
			default:
				if _, err := fmt.Sscanf(val, "%d", &m.Proto); err != nil {
					return FieldMatch{}, fmt.Errorf("packet: nw_proto %q", val)
				}
			}
		case "tp_src":
			if _, err := fmt.Sscanf(val, "%d", &m.SrcPort); err != nil {
				return FieldMatch{}, fmt.Errorf("packet: tp_src %q", val)
			}
			m.HasSrcPort = true
		case "tp_dst":
			if _, err := fmt.Sscanf(val, "%d", &m.DstPort); err != nil {
				return FieldMatch{}, fmt.Errorf("packet: tp_dst %q", val)
			}
			m.HasDstPort = true
		default:
			return FieldMatch{}, fmt.Errorf("packet: unknown match field %q", key)
		}
	}
	return m, nil
}

func parsePrefix(s string) (netip.Prefix, error) {
	if strings.Contains(s, "/") {
		return netip.ParsePrefix(s)
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, a.BitLen()), nil
}

// MarshalJSON encodes the match as its string form, which keeps the JSON
// wire protocol close to the paper's examples.
func (m FieldMatch) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON decodes the string form.
func (m *FieldMatch) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseFieldMatch(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}
