package openmb_test

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb"
	"openmb/internal/obs"
)

// TestMetricsEndpointDuringMoves stands up a live controller with
// heartbeats, serves /metrics over real HTTP, and scrapes it continuously
// while state moves run. Every scrape must parse as Prometheus text
// exposition, expose the conn/move/heartbeat series, and — the contract the
// whole endpoint is built on — every counter-class series must be
// individually monotonic across scrapes.
func TestMetricsEndpointDuringMoves(t *testing.T) {
	ctrl := openmb.NewController(openmb.ControllerOptions{
		QuietPeriod:       40 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	tr := openmb.NewMemTransport()
	if err := ctrl.Serve(tr, "controller"); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	rts := map[string]*openmb.Runtime{}
	for _, name := range []string{"prads1", "prads2"} {
		rt := openmb.NewRuntime(name, openmb.NewMonitor(), openmb.RuntimeOptions{})
		defer rt.Close()
		if err := rt.Connect(tr, "controller"); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		rts[name] = rt
	}
	// Give the source some per-flow state so moves stream real chunks.
	for i := 0; i < 64; i++ {
		rts["prads1"].HandlePacket(&openmb.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}),
			DstIP: netip.MustParseAddr("52.20.0.1"),
			Proto: 6, SrcPort: uint16(20000 + i), DstPort: 80,
		})
	}
	if !rts["prads1"].Drain(5 * time.Second) {
		t.Fatal("drain")
	}

	reg := openmb.NewMetricsRegistry()
	reg.Register(ctrl)
	addr, stop, err := openmb.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	scrape := func() (map[string]float64, error) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			return nil, fmt.Errorf("content-type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return obs.ParseSeries(string(body))
	}

	// counterClass reports whether a series must be monotonic: counters and
	// histogram accumulation series, by the exposition naming convention.
	counterClass := func(series string) bool {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		return strings.HasSuffix(name, "_total") ||
			strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_bucket")
	}

	// Scrape concurrently with the moves, checking monotonicity per series.
	stopScrapes := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	var scrapes int
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := map[string]float64{}
		for {
			select {
			case <-stopScrapes:
				return
			default:
			}
			cur, err := scrape()
			if err != nil {
				scrapeErr = err
				return
			}
			scrapes++
			for k, v := range cur {
				if counterClass(k) && v < prev[k] {
					scrapeErr = fmt.Errorf("series %s went backwards: %v -> %v", k, prev[k], v)
					return
				}
			}
			prev = cur
		}
	}()

	for i := 0; i < 4; i++ {
		src, dst := "prads1", "prads2"
		if i%2 == 1 {
			src, dst = dst, src
		}
		if err := ctrl.MoveInternal(src, dst, openmb.MatchAll); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.WaitTxns(30 * time.Second)
	// Let at least one heartbeat round land before the final scrape.
	time.Sleep(60 * time.Millisecond)
	close(stopScrapes)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}

	final, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(prefix string) float64 {
		var s float64
		for k, v := range final {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	if got := sum("openmb_moves_started_total"); got < 4 {
		t.Errorf("moves_started = %v, want >= 4", got)
	}
	if got := sum("openmb_move_duration_seconds_count"); got < 4 {
		t.Errorf("move histogram count = %v, want >= 4", got)
	}
	if sum("openmb_put_ack_duration_seconds_count") == 0 ||
		sum("openmb_get_duration_seconds_count") == 0 {
		t.Error("op histograms missing get/put observations")
	}
	if sum("openmb_heartbeat_pings_sent_total") == 0 {
		t.Error("no heartbeat pings recorded")
	}
	if sum("openmb_heartbeat_pongs_received_total") == 0 {
		t.Error("no pongs recorded — the ping op spec fix is not round-tripping")
	}
	if got := sum("openmb_mbs_registered"); got != 2 {
		t.Errorf("mbs_registered = %v, want 2", got)
	}
	if sum("openmb_conn_sent_frames_total") == 0 || sum("openmb_conn_received_frames_total") == 0 {
		t.Error("conn counters missing")
	}
}
