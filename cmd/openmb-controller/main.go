// Command openmb-controller runs the OpenMB middlebox controller as a
// daemon: middleboxes (cmd/openmb-mb) connect over TCP, and the controller
// logs registrations and introspection events. Northbound operations are
// exposed programmatically (package openmb); this daemon exists to
// demonstrate the multi-process deployment of the southbound protocol.
//
// The controller is always one node of a cluster, named by -node (default
// "node"). Alone it is a one-node cluster; with -join ADDR (for every member
// after the first) it links to the other nodes over SBI peer connections,
// replicates the middlebox directory with quorum-committed ownership
// changes, and moves middleboxes across process boundaries
// (docs/ARCHITECTURE.md "Distributed cluster"). -admin serves a minimal
// HTTP control surface (/move, /pull, /owner, /mbs, /peers, /health) for
// scripting operations.
//
// SIGTERM and SIGINT both shut the daemon down gracefully: in-flight
// transactions drain, and the node announces its departure so peers shrink
// their quorum denominators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"openmb"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9753", "address to accept middlebox connections on")
	quiet := flag.Duration("quiet-period", 5*time.Second, "event quiescence before completing transactions (the paper's 5 s default)")
	compress := flag.Bool("compress", false, "flate-compress state transfers (§8.3)")
	batch := flag.Int("batch", 0, "state chunks per frame during moves (0 = the library default, 32; 1 = the paper's one-chunk frames)")
	shards := flag.Int("shards", envInt("OPENMB_SHARDS", 0), "transaction-router shards (0 = auto from GOMAXPROCS; default from OPENMB_SHARDS)")
	heartbeat := flag.Duration("heartbeat", envDuration("OPENMB_HEARTBEAT", 0), "liveness probe interval for idle middlebox connections (0 = no heartbeats; default from OPENMB_HEARTBEAT)")
	misses := flag.Int("heartbeat-misses", 0, "silent heartbeat intervals before a connection is declared dead (0 = default 3)")
	helloTimeout := flag.Duration("hello-timeout", 0, "read deadline for a new connection's hello frame (0 = default 10s)")
	events := flag.Bool("log-events", true, "log introspection events")
	metrics := flag.String("metrics", os.Getenv("OPENMB_METRICS"), "address to serve the Prometheus /metrics endpoint on (empty = no endpoint; default from OPENMB_METRICS)")
	nodeName := flag.String("node", os.Getenv("OPENMB_NODE"), "this controller's cluster-wide node name (empty = \"node\"; default from OPENMB_NODE)")
	advertise := flag.String("advertise", "", "address peers and redirected middleboxes dial to reach this node (empty = the listen address)")
	join := flag.String("join", "", "comma-separated addresses of existing cluster nodes to join (empty = a one-node cluster)")
	admin := flag.String("admin", "", "address for the admin HTTP endpoint — /move /pull /owner /mbs /peers /health (empty = none)")
	findRetry := flag.Duration("find-retry", 0, "how long moves, clones and merges wait for a middlebox this node owns to reconnect (0 = default 2s)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound on draining in-flight transactions")
	flag.Parse()

	// The controller is always a cluster node: with no -join it is a
	// one-node cluster, which behaves as a standalone controller.
	opts := openmb.NodeOptions{Name: *nodeName, Advertise: *advertise, FindRetryWindow: *findRetry}
	opts.Cluster.Controller = openmb.ControllerOptions{
		QuietPeriod:       *quiet,
		Compress:          *compress,
		BatchSize:         *batch,
		Shards:            *shards,
		HeartbeatInterval: *heartbeat,
		HeartbeatMisses:   *misses,
		HelloTimeout:      *helloTimeout,
	}
	node := openmb.NewNode(opts)
	if *events {
		node.SubscribeIntrospection(func(mb string, ev *openmb.Event) {
			log.Printf("event from %s: code=%s key=%s values=%v", mb, ev.Code, ev.Key, ev.Values)
		})
	}
	if err := node.Serve(openmb.TCPTransport{}, *listen); err != nil {
		log.Fatal(err)
	}
	log.Printf("openmb-controller node %q listening on %s (advertise %s, quiet period %v, compress=%v, batch=%d (0 = library default), shards=%d, heartbeat=%v)",
		node.Name(), node.Addr(), node.Advertise(), *quiet, *compress, *batch, node.Shards(), *heartbeat)
	for _, addr := range splitList(*join) {
		if err := joinRetry(node, addr); err != nil {
			log.Printf("join %s: %v (will rely on peer redial)", addr, err)
			continue
		}
		log.Printf("joined cluster via %s (peers: %v, known nodes: %d)", addr, node.Peers(), node.KnownNodes())
	}

	if *metrics != "" {
		reg := openmb.NewMetricsRegistry()
		reg.Register(node)
		addr, _, err := openmb.ServeMetrics(*metrics, reg)
		if err != nil {
			// A bad metrics address should kill the daemon at startup,
			// not surface as a silent scrape gap later.
			log.Fatalf("metrics endpoint: %v", err)
		}
		log.Printf("serving /metrics on %s", addr)
	}

	if *admin != "" {
		addr, err := serveAdmin(*admin, node)
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		log.Printf("serving admin API on %s", addr)
	}

	// Periodically report the registered middleboxes.
	go func() {
		for range time.Tick(5 * time.Second) {
			names := node.Middleboxes()
			sort.Strings(names)
			log.Printf("registered middleboxes: %v", names)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("received %v: shutting down\n", s)
	// Graceful departure: drain transactions, announce OpPeerLeave to every
	// peer (shrinking their quorum denominators), then close.
	node.Shutdown(*drain)
}

// serveAdmin starts the minimal HTTP control surface for a cluster node.
// Every handler answers from (or acts through) the local node, so the
// endpoint stays useful under partition: /owner serves the stale-but-safe
// directory view, /move and /pull fail with the node's own quorum errors.
func serveAdmin(addr string, node *openmb.Controller) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok %s peers=%d known=%d\n", node.Name(), len(node.Peers()), node.KnownNodes())
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"name": node.Name(), "peers": node.Peers(), "known": node.KnownNodes()})
	})
	mux.HandleFunc("/mbs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"node": node.Name(), "middleboxes": node.Middleboxes()})
	})
	mux.HandleFunc("/owner", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("mb")
		if name == "" {
			http.Error(w, "missing ?mb=", http.StatusBadRequest)
			return
		}
		owner, ok := node.Lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no directory entry for %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"mb": name, "owner": owner})
	})
	mux.HandleFunc("/pull", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("mb")
		if name == "" {
			http.Error(w, "missing ?mb=", http.StatusBadRequest)
			return
		}
		if err := node.Pull(name); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"pulled": name, "node": node.Name()})
	})
	mux.HandleFunc("/move", func(w http.ResponseWriter, r *http.Request) {
		src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
		if src == "" || dst == "" {
			http.Error(w, "missing ?src= or ?dst=", http.StatusBadRequest)
			return
		}
		match := openmb.MatchAll
		if s := r.URL.Query().Get("match"); s != "" {
			var err error
			if match, err = openmb.ParseFieldMatch(s); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if err := node.MoveInternal(src, dst, match); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"moved": []string{src, dst}, "node": node.Name()})
	})
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(l, mux) }()
	return l.Addr().String(), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// joinRetry dials into the cluster with a short retry: in scripted
// bring-ups (CI, systemd) the seed node's listener may be a beat behind.
func joinRetry(node *openmb.Controller, addr string) error {
	var err error
	for attempt, delay := 0, 200*time.Millisecond; attempt < 10; attempt++ {
		if err = node.Join(addr); err == nil {
			return nil
		}
		time.Sleep(delay)
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
	return err
}

// splitList parses a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// envDuration reads a duration default for a flag, with the same
// start-anyway policy as envInt.
func envDuration(key string, fallback time.Duration) time.Duration {
	env := os.Getenv(key)
	if env == "" {
		return fallback
	}
	d, err := time.ParseDuration(env)
	if err != nil || d < 0 {
		log.Printf("openmb-controller: ignoring %s=%q: want a non-negative duration", key, env)
		return fallback
	}
	return d
}

// envInt reads an integer default for a flag; fallback when unset or
// malformed — a daemon should start rather than die on a stale environment
// variable, and the resolved configuration is logged at startup.
func envInt(key string, fallback int) int {
	env := os.Getenv(key)
	if env == "" {
		return fallback
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 0 {
		log.Printf("openmb-controller: ignoring %s=%q: want a non-negative integer", key, env)
		return fallback
	}
	return n
}
