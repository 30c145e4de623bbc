package mbox

import (
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// TestEventFilterListStaysBounded: setting an event filter over the
// southbound drops the filters that can no longer decide an event, so the
// list every event-raising burst copies does not grow with the sets. A
// thousand toggles of one filter leave one entry, and a filter past its TTL
// is gone after the next set.
func TestEventFilterListStaysBounded(t *testing.T) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	rt := New("mb", &touchLogic{cfg: state.NewConfigTree()}, Options{Codec: sbi.CodecJSON})
	defer rt.Close()
	go func() { _ = rt.Connect(tr, "ctrl") }()
	raw, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ctrl := sbi.NewConn(raw)
	if _, err := ctrl.Receive(); err != nil { // the hello
		t.Fatal(err)
	}
	id := uint64(0)
	set := func(code string, enable bool, ttl time.Duration) {
		t.Helper()
		id++
		if err := ctrl.Send(&sbi.Message{Type: sbi.MsgRequest, ID: id, Op: sbi.OpSetEventFilter,
			Path: code, Match: packet.MatchAll, Enable: enable, TTLNanos: int64(ttl)}); err != nil {
			t.Fatal(err)
		}
		if m, err := ctrl.Receive(); err != nil || m.Type != sbi.MsgDone || m.ID != id {
			t.Fatalf("set filter %d: %+v, %v", id, m, err)
		}
	}
	filters := func() int {
		rt.filtersMu.Lock()
		defer rt.filtersMu.Unlock()
		return len(rt.filters)
	}
	for i := range 1000 {
		set("ips.", i%2 == 0, 0)
	}
	if n := filters(); n != 1 {
		t.Fatalf("1000 toggles of one filter left %d entries, want 1", n)
	}
	// An untimed filter outlives a TTL'd one and replaces it; a TTL'd one
	// does not outlive an untimed one and sits beside it.
	set("monitor.", true, time.Millisecond)
	set("monitor.", false, 0)
	set("monitor.", true, time.Millisecond)
	if n := filters(); n != 3 {
		t.Fatalf("%d entries, want the toggled filter, the untimed one and the TTL'd one", n)
	}
	time.Sleep(5 * time.Millisecond)
	set("ips.", true, 0)
	if n := filters(); n != 2 {
		t.Fatalf("%d entries after the TTL'd filter expired and the next set, want 2", n)
	}
}
