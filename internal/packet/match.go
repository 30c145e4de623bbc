package packet

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
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

// Match reports whether k satisfies every set predicate.
func (m FieldMatch) Match(k FlowKey) bool {
	if m.SrcPrefix.IsValid() && !m.SrcPrefix.Contains(k.SrcIP) {
		return false
	}
	if m.DstPrefix.IsValid() && !m.DstPrefix.Contains(k.DstIP) {
		return false
	}
	if m.Proto != 0 && m.Proto != k.Proto {
		return false
	}
	if m.HasSrcPort && m.SrcPort != k.SrcPort {
		return false
	}
	if m.HasDstPort && m.DstPort != k.DstPort {
		return false
	}
	return true
}

// MatchEither reports whether the match covers the flow in either direction.
// Connection-oriented middleboxes key state canonically, so a request that
// names the client->server direction must also select the reverse direction.
func (m FieldMatch) MatchEither(k FlowKey) bool {
	return m.Match(k) || m.Match(k.Reverse())
}

// Compile lowers the match into a single predicate closure, specialized to
// the fields that are actually set, so a hot path can evaluate it without
// re-checking prefix validity or Has* flags per packet. The returned
// predicate has Match semantics (forward direction only); callers that need
// either-direction coverage compose it with FlowKey.Reverse. The wildcard
// match compiles to a constant-true closure with no captures.
//
// This is the skbtrace discipline the flow tracer relies on: the filter is
// compiled exactly once, at arm time, never on the packet path.
func (m FieldMatch) Compile() func(FlowKey) bool {
	if m.IsAll() {
		return func(FlowKey) bool { return true }
	}
	type check struct {
		hasSrc, hasDst bool
		srcPfx, dstPfx netip.Prefix
		proto          uint8
		srcPort        uint16
		dstPort        uint16
		hasSrcPort     bool
		hasDstPort     bool
	}
	c := check{
		hasSrc: m.SrcPrefix.IsValid(), srcPfx: m.SrcPrefix,
		hasDst: m.DstPrefix.IsValid(), dstPfx: m.DstPrefix,
		proto:      m.Proto,
		srcPort:    m.SrcPort,
		dstPort:    m.DstPort,
		hasSrcPort: m.HasSrcPort,
		hasDstPort: m.HasDstPort,
	}
	return func(k FlowKey) bool {
		if c.proto != 0 && c.proto != k.Proto {
			return false
		}
		if c.hasSrcPort && c.srcPort != k.SrcPort {
			return false
		}
		if c.hasDstPort && c.dstPort != k.DstPort {
			return false
		}
		if c.hasSrc && !c.srcPfx.Contains(k.SrcIP) {
			return false
		}
		if c.hasDst && !c.dstPfx.Contains(k.DstIP) {
			return false
		}
		return true
	}
}

// IsAll reports whether the match is the full wildcard.
func (m FieldMatch) IsAll() bool {
	return !m.SrcPrefix.IsValid() && !m.DstPrefix.IsValid() && m.Proto == 0 && !m.HasSrcPort && !m.HasDstPort
}

// Granularity returns a coarse measure of how specific the match is: the
// number of header fields it constrains (prefixes count fractionally by
// prefix length). Middleboxes use it to reject requests finer than their
// own state granularity (§4.1.2).
func (m FieldMatch) Granularity() int {
	g := 0
	if m.SrcPrefix.IsValid() {
		g++
		if m.SrcPrefix.IsSingleIP() {
			g++
		}
	}
	if m.DstPrefix.IsValid() {
		g++
		if m.DstPrefix.IsSingleIP() {
			g++
		}
	}
	if m.Proto != 0 {
		g++
	}
	if m.HasSrcPort {
		g++
	}
	if m.HasDstPort {
		g++
	}
	return g
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

// SortKeys sorts flow keys in place under FlowKey.Compare. Every per-flow
// get sorts its keys so that exports — and everything downstream of their
// order — are deterministic across runs; it is on the move path, so it
// compares fields and builds nothing per key.
func SortKeys(keys []FlowKey) { slices.SortFunc(keys, FlowKey.Compare) }
