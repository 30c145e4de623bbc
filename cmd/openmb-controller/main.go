// Command openmb-controller runs the OpenMB middlebox controller as a
// daemon: middleboxes (cmd/openmb-mb) connect over TCP, and the controller
// logs registrations and introspection events. Northbound operations are
// exposed programmatically (package openmb); this daemon exists to
// demonstrate the multi-process deployment of the southbound protocol.
//
// With -replicas N (or OPENMB_REPLICAS) the daemon runs a controller
// CLUSTER: N replicas behind the one listener, middleboxes partitioned
// across them by the consistent-hash directory. -rebalance enables a
// periodic live rotation — every interval, one middlebox is handed off to
// the next replica mid-flight — exercising the ownership-transfer protocol
// continuously, the way a production deployment would during maintenance
// drains.
//
// With -node NAME (and -join ADDR for every member after the first) the
// daemon becomes one node of a DISTRIBUTED cluster: controller processes
// link to each other over SBI peer connections, replicate the middlebox
// directory with quorum-committed ownership changes, and move middleboxes
// across process boundaries (docs/ARCHITECTURE.md "Distributed cluster").
// -admin serves a minimal HTTP control surface (/move, /pull, /owner, /mbs,
// /peers, /health) for scripting cross-node operations.
//
// SIGTERM and SIGINT both shut the daemon down gracefully: in-flight
// transactions drain, spawned elastic children retire, and (in node mode)
// the node announces its departure so peers shrink their quorum
// denominators.
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
	shards := flag.Int("shards", envInt("OPENMB_SHARDS", 0), "transaction-router shards per replica (0 = auto from GOMAXPROCS; default from OPENMB_SHARDS)")
	replicas := flag.Int("replicas", envInt("OPENMB_REPLICAS", 1), "controller replicas in the cluster (1 = single-controller; default from OPENMB_REPLICAS)")
	rebalance := flag.Duration("rebalance", 0, "interval between live handoffs rotating one middlebox to the next replica (0 = never)")
	heartbeat := flag.Duration("heartbeat", envDuration("OPENMB_HEARTBEAT", 0), "liveness probe interval for idle middlebox connections (0 = no heartbeats; default from OPENMB_HEARTBEAT)")
	misses := flag.Int("heartbeat-misses", 0, "silent heartbeat intervals before a connection is declared dead (0 = default 3)")
	helloTimeout := flag.Duration("hello-timeout", 0, "read deadline for a new connection's hello frame (0 = default 10s)")
	events := flag.Bool("log-events", true, "log introspection events")
	metrics := flag.String("metrics", os.Getenv("OPENMB_METRICS"), "address to serve the Prometheus /metrics endpoint on (empty = no endpoint; default from OPENMB_METRICS)")
	elasticOn := flag.Bool("elastic", envBool("OPENMB_ELASTIC", true), "arm the elasticity loop: sample control-plane load and migrate hot middleboxes to cool replicas (default from OPENMB_ELASTIC)")
	elasticInterval := flag.Duration("elastic-interval", 0, "elasticity sampling period (0 = default 50ms)")
	elasticCooldown := flag.Duration("elastic-cooldown", 0, "quiet window after each elasticity action (0 = default 500ms)")
	elasticMigrateRatio := flag.Float64("elastic-migrate-ratio", 0, "multiple of peer-mean control load a replica must carry before a migration fires (0 = default 4, negative disables migration)")
	elasticMigrateMin := flag.Float64("elastic-migrate-min", 0, "minimum absolute per-interval control load before a migration fires (0 = default 256)")
	elasticMBBin := flag.String("elastic-mb-bin", os.Getenv("OPENMB_ELASTIC_MB_BIN"), "openmb-mb binary the elasticity loop may spawn as scale-out group members (empty = migrate-only; default from OPENMB_ELASTIC_MB_BIN)")
	elasticMBKind := flag.String("elastic-mb-kind", "monitor", "middlebox -kind for spawned group members")
	elasticMBController := flag.String("elastic-mb-controller", "", "comma-separated -controller list handed to spawned members (empty = this daemon's listen address)")
	nodeName := flag.String("node", os.Getenv("OPENMB_NODE"), "run as the named node of a distributed cluster (empty = standalone; default from OPENMB_NODE)")
	advertise := flag.String("advertise", "", "address peers and redirected middleboxes dial to reach this node (empty = the listen address)")
	join := flag.String("join", "", "comma-separated addresses of existing cluster nodes to join (implies node mode)")
	admin := flag.String("admin", "", "address for the admin HTTP endpoint — /move /pull /owner /mbs /peers /health (node mode only; empty = none)")
	findRetry := flag.Duration("find-retry", 0, "how long northbound operations retry an unresolved middlebox name (0 = default: 250ms standalone, 2s node mode)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound on draining in-flight transactions")
	flag.Parse()

	clusterOpts := openmb.ClusterOptions{
		Replicas:        *replicas,
		FindRetryWindow: *findRetry,
		Controller: openmb.ControllerOptions{
			QuietPeriod:       *quiet,
			Compress:          *compress,
			BatchSize:         *batch,
			Shards:            *shards,
			HeartbeatInterval: *heartbeat,
			HeartbeatMisses:   *misses,
			HelloTimeout:      *helloTimeout,
		},
	}

	// Node mode wraps the cluster in a distributed-cluster Node; standalone
	// serves the bare cluster. Either way `cluster` drives the shared paths
	// (introspection, metrics, rebalance, elasticity).
	var node *openmb.Node
	var cluster *openmb.Cluster
	if *nodeName != "" || *join != "" {
		if *nodeName == "" {
			*nodeName = "node"
		}
		node = openmb.NewNode(openmb.NodeOptions{
			Name:      *nodeName,
			Advertise: *advertise,
			Cluster:   clusterOpts,
		})
		cluster = node.Cluster
	} else {
		cluster = openmb.NewCluster(clusterOpts)
	}
	if *events {
		cluster.SubscribeIntrospection(func(mb string, ev *openmb.Event) {
			log.Printf("event from %s: code=%s key=%s values=%v", mb, ev.Code, ev.Key, ev.Values)
		})
	}
	if node != nil {
		if err := node.Serve(openmb.TCPTransport{}, *listen); err != nil {
			log.Fatal(err)
		}
		log.Printf("openmb-controller node %q listening on %s (advertise %s, replicas=%d, quiet period %v)",
			node.Name(), node.Addr(), node.Advertise(), cluster.Replicas(), *quiet)
		for _, addr := range splitList(*join) {
			if err := joinRetry(node, addr); err != nil {
				log.Printf("join %s: %v (will rely on peer redial)", addr, err)
				continue
			}
			log.Printf("joined cluster via %s (peers: %v, known nodes: %d)", addr, node.Peers(), node.KnownNodes())
		}
	} else {
		if err := cluster.Serve(openmb.TCPTransport{}, *listen); err != nil {
			log.Fatal(err)
		}
		log.Printf("openmb-controller listening on %s (replicas=%d, quiet period %v, compress=%v, batch=%d (0 = library default), shards=%d, heartbeat=%v)",
			*listen, cluster.Replicas(), *quiet, *compress, *batch, cluster.Shards(), *heartbeat)
	}

	// Elasticity loop. Without -elastic-mb-bin the daemon hosts no spawnable
	// instances, so the loop runs in migrate-only mode (nil driver), handing
	// hot middleboxes to cool replicas. With a binary configured, scale-outs
	// spawn real openmb-mb processes pointed back at this controller (or the
	// explicit -elastic-mb-controller list, for failover across nodes).
	var loop *openmb.ElasticLoop
	var drv *openmb.ElasticProcessDriver
	var act *openmb.ElasticClusterActuator
	if *elasticOn {
		src := openmb.NewElasticClusterSource(cluster)
		var groupDrv openmb.ElasticGroupDriver
		if *elasticMBBin != "" {
			ctrlList := *elasticMBController
			if ctrlList == "" {
				ctrlList = *listen
			}
			drv = openmb.NewElasticProcessDriver(openmb.ElasticProcessConfig{
				Bin:        *elasticMBBin,
				Controller: ctrlList,
				Kind:       *elasticMBKind,
			})
			groupDrv = drv
		}
		act = openmb.NewElasticClusterActuator(cluster, src, groupDrv)
		loop = openmb.NewElasticLoop(openmb.ElasticConfig{
			Interval:     *elasticInterval,
			Cooldown:     *elasticCooldown,
			MigrateRatio: *elasticMigrateRatio,
			MigrateMin:   *elasticMigrateMin,
		}, src, act)
		loop.Start()
		if drv != nil {
			log.Printf("elasticity loop armed (process driver %s, kind %s; interval=%v cooldown=%v)", *elasticMBBin, *elasticMBKind, *elasticInterval, *elasticCooldown)
		} else {
			log.Printf("elasticity loop armed (migrate-only; interval=%v cooldown=%v)", *elasticInterval, *elasticCooldown)
		}
	}

	if *metrics != "" {
		reg := openmb.NewMetricsRegistry()
		if node != nil {
			reg.Register(node)
		} else {
			reg.Register(cluster)
		}
		if loop != nil {
			reg.Register(loop)
			reg.Register(act)
		}
		addr, _, err := openmb.ServeMetrics(*metrics, reg)
		if err != nil {
			// A bad metrics address should kill the daemon at startup,
			// not surface as a silent scrape gap later.
			log.Fatalf("metrics endpoint: %v", err)
		}
		log.Printf("serving /metrics on %s", addr)
	}

	if *admin != "" {
		if node == nil {
			log.Fatal("openmb-controller: -admin requires node mode (-node or -join)")
		}
		addr, err := serveAdmin(*admin, node)
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		log.Printf("serving admin API on %s", addr)
	}

	// Periodically report the registered middleboxes and their replicas.
	go func() {
		for range time.Tick(5 * time.Second) {
			log.Printf("registered middleboxes: %v", describeOwners(cluster))
		}
	}()

	// Live rotation: one handoff per interval, round-robin over the
	// registered middleboxes, each to the next replica.
	if *rebalance > 0 && cluster.Replicas() > 1 {
		go func() {
			i := 0
			for range time.Tick(*rebalance) {
				names := cluster.Middleboxes()
				if len(names) == 0 {
					continue
				}
				name := names[i%len(names)]
				i++
				cur, err := cluster.ReplicaOf(name)
				if err != nil {
					continue
				}
				target := (cur + 1) % cluster.Replicas()
				if err := cluster.Rebalance(name, target); err != nil {
					log.Printf("rebalance %s -> replica %d: %v", name, target, err)
					continue
				}
				log.Printf("rebalanced %s: replica %d -> %d (%d handoffs total)", name, cur, target, cluster.Handoffs())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("received %v: shutting down\n", s)
	if loop != nil {
		loop.Close()
	}
	if drv != nil {
		// Retire spawned children (SIGTERM, then SIGKILL after their grace
		// window) before the controller stops serving their reconnects.
		drv.Close()
	}
	if node != nil {
		// Graceful departure: drain transactions, announce OpPeerLeave to
		// every peer (shrinking their quorum denominators), then close.
		node.Shutdown(*drain)
	} else {
		cluster.WaitTxns(*drain)
		cluster.Close()
	}
}

// serveAdmin starts the minimal HTTP control surface for a cluster node.
// Every handler answers from (or acts through) the local node, so the
// endpoint stays useful under partition: /owner serves the stale-but-safe
// directory view, /move and /pull fail with the node's own quorum errors.
func serveAdmin(addr string, node *openmb.Node) (string, error) {
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
func joinRetry(node *openmb.Node, addr string) error {
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

// describeOwners renders "name@replica" for every registered middlebox.
func describeOwners(cl *openmb.Cluster) []string {
	names := cl.Middleboxes()
	out := make([]string, 0, len(names))
	for _, n := range names {
		r, err := cl.ReplicaOf(n)
		if err != nil {
			continue
		}
		out = append(out, fmt.Sprintf("%s@%d", n, r))
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

// envBool reads an on/off default for a flag; fallback when unset or
// malformed, like envInt.
func envBool(key string, fallback bool) bool {
	switch env := os.Getenv(key); env {
	case "":
	case "on", "1", "true":
		return true
	case "off", "0", "false":
		return false
	default:
		log.Printf("openmb-controller: ignoring %s=%q: want on/off (or 1/0)", key, env)
	}
	return fallback
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
