// Command openmb-mb runs one OpenMB-enabled middlebox instance: it connects
// to a controller over TCP, serves the southbound API, and optionally
// replays a trace file through its packet path.
//
// -controller accepts a comma-separated address list: the runtime dials the
// first reachable candidate and fails over down the list when a session
// dies or a controller refuses (or redirects) the registration — the
// client half of the distributed cluster's directory protocol.
//
// SIGTERM and SIGINT both exit gracefully: in-flight packet work drains
// (bounded by -drain-timeout) before the southbound session closes.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"openmb"
	"openmb/internal/mbox/lb"
	"openmb/internal/mbox/nat"
	"openmb/internal/trace"
)

func main() {
	controller := flag.String("controller", "127.0.0.1:9753", "controller address, or a comma-separated failover list (first reachable wins)")
	name := flag.String("name", "", "instance name (required), e.g. prads1")
	kind := flag.String("kind", "monitor", "middlebox type: monitor|ips|re-encoder|re-decoder|nat|lb")
	tracePath := flag.String("trace", "", "optional trace file to replay through the packet path")
	pace := flag.Duration("pace", 0, "delay between replayed packets")
	codecName := flag.String("codec", "binary", "southbound wire codec: binary (default fast path) or json (paper-faithful compatibility/debug)")
	natIP := flag.String("nat-ip", "5.5.5.5", "external IP for -kind nat")
	lbVIP := flag.String("lb-vip", "1.1.1.100:80", "VIP for -kind lb")
	lbBackends := flag.String("lb-backends", "1.1.1.10:8080,1.1.1.11:8080", "comma-separated backends for -kind lb")
	cacheBytes := flag.Int("cache-bytes", 1<<22, "cache capacity for -kind re-encoder/re-decoder")
	reconnect := flag.Bool("reconnect", false, "redial the controller with exponential backoff when the southbound session drops")
	reconnectMin := flag.Duration("reconnect-min", 0, "initial redial backoff (0 = default 50ms)")
	reconnectMax := flag.Duration("reconnect-max", 0, "backoff ceiling (0 = default 2s)")
	metrics := flag.String("metrics", os.Getenv("OPENMB_METRICS"), "address to serve the Prometheus /metrics endpoint on (empty = no endpoint; default from OPENMB_METRICS)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound on draining in-flight packet work")
	flag.Parse()
	if *name == "" {
		log.Fatal("openmb-mb: -name is required")
	}

	codec, err := openmb.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	logic, err := buildLogic(*kind, *natIP, *lbVIP, *lbBackends, *cacheBytes)
	if err != nil {
		log.Fatal(err)
	}
	rt := openmb.NewRuntime(*name, logic, openmb.RuntimeOptions{
		Codec:        codec,
		Reconnect:    *reconnect,
		ReconnectMin: *reconnectMin,
		ReconnectMax: *reconnectMax,
	})
	defer rt.Close()
	if err := rt.Connect(openmb.TCPTransport{}, *controller); err != nil {
		log.Fatal(err)
	}
	log.Printf("%s (%s) connected to %s (codec %s)", *name, logic.Kind(), *controller, codec)

	if *metrics != "" {
		reg := openmb.NewMetricsRegistry()
		reg.Register(rt)
		addr, _, err := openmb.ServeMetrics(*metrics, reg)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		log.Printf("serving /metrics on %s", addr)
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replaying %d packets from %s", len(tr.Packets), *tracePath)
		go func() {
			for _, p := range tr.Packets {
				rt.HandlePacket(p)
				if *pace > 0 {
					time.Sleep(*pace)
				}
			}
			rt.Drain(time.Minute)
			m := rt.Metrics()
			log.Printf("replay done: processed=%d emitted=%d events=%d", m.Processed, m.Emitted, m.EventsRaised)
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	// Graceful drain: let in-flight packet work and buffered events reach
	// the controller before the deferred Close tears the session down — a
	// SIGTERM'd instance should leave no half-processed state behind.
	if !rt.Drain(*drainTimeout) {
		log.Printf("drain did not complete within %v", *drainTimeout)
	}
	m := rt.Metrics()
	fmt.Printf("received %v, shutting down: processed=%d replayed=%d events=%d\n", s, m.Processed, m.Replayed, m.EventsRaised)
}

func buildLogic(kind, natIP, lbVIP, lbBackends string, cacheBytes int) (openmb.Logic, error) {
	switch kind {
	case "monitor":
		return openmb.NewMonitor(), nil
	case "ips":
		return openmb.NewIPS(), nil
	case "re-encoder":
		return openmb.NewREEncoder(cacheBytes), nil
	case "re-decoder":
		return openmb.NewREDecoder(cacheBytes), nil
	case "nat":
		ip, err := netip.ParseAddr(natIP)
		if err != nil {
			return nil, fmt.Errorf("openmb-mb: -nat-ip: %w", err)
		}
		return nat.New(ip), nil
	case "lb":
		vip, err := lb.ParseBackend(lbVIP)
		if err != nil {
			return nil, fmt.Errorf("openmb-mb: -lb-vip: %w", err)
		}
		var backends []lb.Backend
		for _, s := range strings.Split(lbBackends, ",") {
			b, err := lb.ParseBackend(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("openmb-mb: -lb-backends: %w", err)
			}
			backends = append(backends, b)
		}
		return lb.New(vip.IP, vip.Port, backends), nil
	}
	return nil, fmt.Errorf("openmb-mb: unknown kind %q", kind)
}
