// Package ips implements a Bro-like intrusion prevention system (§7 of the
// paper). It reproduces the properties of Bro that the evaluation leans on:
//
//   - deep per-flow supporting state: each connection owns a tree of
//     analyzer objects (TCP state machine, HTTP analyzer with buffered
//     parser state and a pending-request queue, per-connection signature
//     matches) — the stand-in for Bro's Connection object and the >100
//     classes the paper serialized with libboost;
//   - shared supporting state: a cross-flow scan detector (per-source
//     distinct destination ports/hosts), which Split/Merge cannot handle
//     and OpenMB moves via getSupportShared/putSupportShared;
//   - conn.log and http.log output streams, written at connection
//     termination and response completion — the artifacts the correctness
//     experiment (§8.2) diffs between an unmodified and an OpenMB-enabled
//     run;
//   - a linear-scan get over the connections with per-connection
//     serialization under a short lock. Bro keeps one table per transport;
//     here every transport shares one mbox.Table under canonical flow IDs,
//     whose flow index answers prefix-constrained gets.
package ips

import (
	"fmt"

	"openmb/internal/packet"
)

// ConnState is the Bro-style connection state summary.
type ConnState string

// Connection states, after Bro's conn_state field.
const (
	// StateS0: connection attempt seen, no reply.
	StateS0 ConnState = "S0"
	// StateS1: connection established, not terminated.
	StateS1 ConnState = "S1"
	// StateSF: normal establishment and termination.
	StateSF ConnState = "SF"
	// StateREJ: connection attempt rejected (RST).
	StateREJ ConnState = "REJ"
	// StateRSTO: connection established, originator aborted.
	StateRSTO ConnState = "RSTO"
	// StateOTH: midstream traffic, no SYN seen.
	StateOTH ConnState = "OTH"
)

// EndpointStats tracks one direction of a connection.
type EndpointStats struct {
	Packets uint64 `json:"pkts"`
	Bytes   uint64 `json:"bytes"`
	SYN     bool   `json:"syn"`
	FIN     bool   `json:"fin"`
	RST     bool   `json:"rst"`
	// LastSeq is the highest sequence number seen.
	LastSeq uint32 `json:"lastSeq"`
}

// Conn is the per-flow supporting state: Bro's Connection object plus its
// analyzer tree. The whole tree serializes as one chunk.
type Conn struct {
	Key   packet.FlowKey `json:"-"`
	KeyS  string         `json:"key"`
	Proto uint8          `json:"proto"`
	State ConnState      `json:"state"`
	Start int64          `json:"start"`
	Last  int64          `json:"last"`
	Orig  EndpointStats  `json:"orig"`
	Resp  EndpointStats  `json:"resp"`
	// History is the Bro-style per-packet event history string
	// (S=SYN, h=handshake done, d/D=data, f/F=fin, r/R=rst; lowercase
	// originator, uppercase responder).
	History string `json:"history"`
	// HTTP is the HTTP analyzer, attached lazily on port-80 traffic.
	HTTP *HTTPAnalyzer `json:"http,omitempty"`
	// SigMatches counts signature-rule hits on this connection.
	SigMatches uint64 `json:"sigMatches"`
	// Established reports whether the three-way handshake completed.
	Established bool `json:"established"`
	// orig is Key — the originator's direction, which logs and exports
	// print — as the ID the packet path compares against.
	orig packet.FlowID
}

func newConn(orig packet.FlowID, ts int64) *Conn {
	return &Conn{Key: orig.Key(), orig: orig, Proto: orig.Proto(), State: StateOTH, Start: ts, Last: ts}
}

// update advances the connection state machine for one packet. fromOrig
// reports the packet direction. It returns true when the packet terminates
// the connection (both FINs acknowledged, or an RST).
func (c *Conn) update(p *packet.Packet, fromOrig bool) (terminated bool) {
	c.Last = p.Timestamp
	ep := &c.Resp
	if fromOrig {
		ep = &c.Orig
	}
	ep.Packets++
	ep.Bytes += uint64(len(p.Payload))
	if p.Seq > ep.LastSeq {
		ep.LastSeq = p.Seq
	}

	if c.Proto != packet.ProtoTCP {
		if c.State == StateOTH && c.Orig.Packets+c.Resp.Packets == 1 {
			c.State = StateS0
		}
		if c.Orig.Packets > 0 && c.Resp.Packets > 0 {
			c.State = StateSF
		}
		return false
	}

	switch {
	case p.Flags&packet.FlagRST != 0:
		ep.RST = true
		c.appendHistory(fromOrig, 'r')
		if c.Established {
			c.State = StateRSTO
		} else {
			c.State = StateREJ
		}
		return true
	case p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0:
		ep.SYN = true
		c.appendHistory(fromOrig, 's')
		if c.State == StateOTH {
			c.State = StateS0
		}
	case p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK != 0:
		ep.SYN = true
		c.appendHistory(fromOrig, 'h')
		if c.State == StateS0 {
			c.State = StateS1
			c.Established = true
		}
	case p.Flags&packet.FlagFIN != 0:
		ep.FIN = true
		c.appendHistory(fromOrig, 'f')
		if c.Orig.FIN && c.Resp.FIN {
			if c.Established {
				c.State = StateSF
			}
			return true
		}
	}
	if len(p.Payload) > 0 {
		c.appendHistory(fromOrig, 'd')
	}
	return false
}

func (c *Conn) appendHistory(fromOrig bool, ch byte) {
	if len(c.History) >= 64 {
		return // bounded, as in Bro
	}
	if !fromOrig {
		ch = ch - 'a' + 'A'
	}
	c.History += string(ch)
}

// logLine renders the conn.log entry for this connection. The format is
// stable and timestamp-free apart from trace-relative times, so two runs
// over the same trace diff cleanly.
func (c *Conn) logLine() string {
	return fmt.Sprintf("%s proto=%d state=%s dur=%d opkts=%d rpkts=%d obytes=%d rbytes=%d hist=%s sigs=%d",
		c.Key, c.Proto, c.State, c.Last-c.Start,
		c.Orig.Packets, c.Resp.Packets, c.Orig.Bytes, c.Resp.Bytes, c.History, c.SigMatches)
}
