package core

// Multi-process chaos: real openmb controller nodes in separate OS
// processes, real TCP between them, and kill = SIGKILL of an actual
// process. The child processes are this test binary re-executed into
// TestHelperNodeProcess (the standard helper-process pattern), which runs a
// cluster Node and takes commands on stdin; the middlebox runtimes live in
// the parent so per-flow conservation is asserted on real state the killed
// process cannot take with it.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestHelperNodeProcess is not a test: it is the body of the child
// processes spawned by the multi-process scenarios. Guarded by an
// environment variable so normal test runs skip it.
func TestHelperNodeProcess(t *testing.T) {
	if os.Getenv("OPENMB_HELPER_NODE") != "1" {
		t.Skip("helper process body")
	}
	n := NewNode(NodeOptions{
		Name:            os.Getenv("OPENMB_HELPER_NAME"),
		PeerCallTimeout: 400 * time.Millisecond,
		Cluster:         ClusterOptions{Controller: Options{QuietPeriod: 60 * time.Millisecond}},
	})
	if err := n.Serve(sbi.TCPTransport{}, "127.0.0.1:0"); err != nil {
		fmt.Printf("ERR serve: %v\n", err)
		return
	}
	if join := os.Getenv("OPENMB_HELPER_JOIN"); join != "" {
		if err := n.Join(join); err != nil {
			fmt.Printf("ERR join: %v\n", err)
			return
		}
	}
	fmt.Printf("LISTEN %s\n", n.Addr())

	// Command loop: one line per command until stdin closes (the parent is
	// done with us). "move src dst" coordinates a cluster move here — the
	// scenario SIGKILLs this process mid-move, so the result line may never
	// be written.
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "move" {
			go func(src, dst string) {
				// The parent saw both registrations in another node's
				// directory, which applies an entry when it acks it; this
				// node registers the middlebox only after its own quorum
				// round, so a move sent at once can find neither.
				for _, name := range []string{src, dst} {
					if err := n.WaitForMB(name, 10*time.Second); err != nil {
						fmt.Fprintf(os.Stderr, "MOVERR %v\n", err)
						return
					}
				}
				if err := n.MoveInternal(src, dst, packet.MatchAll); err != nil {
					fmt.Fprintf(os.Stderr, "MOVERR %v\n", err)
					return
				}
				fmt.Println("MOVED")
			}(fields[1], fields[2])
		}
	}
	n.Close()
}

// helperNode is one spawned child controller process.
type helperNode struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func spawnHelperNode(t *testing.T, name, join string) *helperNode {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperNodeProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"OPENMB_HELPER_NODE=1",
		"OPENMB_HELPER_NAME="+name,
		"OPENMB_HELPER_JOIN="+join,
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn %s: %v", name, err)
	}
	h := &helperNode{cmd: cmd, stdin: stdin}
	t.Cleanup(func() {
		_ = stdin.Close()
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	// The child announces its listener with a LISTEN line; everything else
	// on its stdout (go test chatter, MOVED results) is drained in the
	// background. MOVERR goes to stderr, so a failed move is visible.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced && (strings.HasPrefix(line, "LISTEN ") || strings.HasPrefix(line, "ERR ")) {
				announced = true
				lines <- line
			}
		}
	}()
	select {
	case line := <-lines:
		if !strings.HasPrefix(line, "LISTEN ") {
			t.Fatalf("child %s failed to start: %s", name, line)
		}
		h.addr = strings.TrimPrefix(line, "LISTEN ")
	case <-time.After(30 * time.Second):
		t.Fatalf("child %s never announced its listener", name)
	}
	return h
}

func (h *helperNode) send(t *testing.T, cmd string) {
	t.Helper()
	if _, err := io.WriteString(h.stdin, cmd+"\n"); err != nil {
		t.Fatalf("command %q: %v", cmd, err)
	}
}

// sigkill terminates the child the hard way — no drain, no goodbye, the
// kernel reaps its sockets.
func (h *helperNode) sigkill(t *testing.T) {
	t.Helper()
	if err := h.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = h.cmd.Process.Wait()
}

// TestProcessKillMidMove is the kill-mid-move chaos scenario across real
// process boundaries: three controller nodes (one in-test, two spawned
// processes), middlebox runtimes in the parent registered to a child node,
// a move pinned provably mid-data-phase by a gated logic — and then SIGKILL
// of the coordinating process. The runtimes must fail over to the surviving
// node (its registration quorum-commits against the remaining majority; the
// killed node stays in the denominator), RecoverMove must roll back the
// orphaned half-move and re-run it, and every preloaded count and live
// packet must land exactly once, inside the recovery SLO.
func TestProcessKillMidMove(t *testing.T) {
	const flows, rounds = 30, 5
	n0 := NewNode(NodeOptions{
		Name:            "n0",
		PeerCallTimeout: 400 * time.Millisecond,
		Cluster:         ClusterOptions{Controller: Options{QuietPeriod: 60 * time.Millisecond}},
	})
	if err := n0.Serve(sbi.TCPTransport{}, "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	t.Cleanup(n0.Close)

	n1 := spawnHelperNode(t, "n1", n0.Addr())
	spawnHelperNode(t, "n2", n0.Addr())
	waitUntil(t, 20*time.Second, "three-node mesh", func() bool {
		return len(n0.Peers()) == 2 && n0.KnownNodes() == 3
	})

	// Middlebox runtimes live HERE, in the parent — the killed process
	// cannot take the ground truth with it. They prefer the doomed child
	// and fail over to n0.
	gate := newGateLogic(10)
	dst := mbtest.NewCounterLogic(16)
	srcRT := attachNodeMB(t, "src0", gate, n1.addr+","+n0.Addr())
	dstRT := attachNodeMB(t, "dst0", dst, n1.addr+","+n0.Addr())
	waitUntil(t, 20*time.Second, "registrations committed at n1", func() bool {
		so, _ := n0.Lookup("src0")
		do, _ := n0.Lookup("dst0")
		return so == "n1" && do == "n1"
	})
	gate.Preload(flows)

	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for round := 0; round < rounds; round++ {
			for f := 0; f < flows; f++ {
				srcRT.HandlePacket(mbtest.PacketForFlow(f))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The child coordinates the move; the gate pins it mid-data-phase —
	// exported chunks in flight, marks set, events buffering — and then the
	// coordinator is SIGKILLed. Everything it knew (its transaction
	// registry, its routing state) dies with it.
	n1.send(t, "move src0 dst0")
	gate.awaitReached(t, srcRT)
	start := time.Now()
	n1.sigkill(t)
	close(gate.release)

	// Failover: the runtimes redial down their candidate lists to n0,
	// whose commits still clear quorum (n0 + n2 of {n0, n1, n2}).
	if err := n0.WaitForMB("src0", 15*time.Second); err != nil {
		t.Fatalf("src0 never failed over to the survivor: %v", err)
	}
	if err := n0.WaitForMB("dst0", 15*time.Second); err != nil {
		t.Fatalf("dst0 never failed over to the survivor: %v", err)
	}
	if err := n0.RecoverMove("src0", "dst0", packet.MatchAll); err != nil {
		t.Fatalf("recover move after SIGKILL: %v", err)
	}
	recovery := time.Since(start)
	if recovery > recoverySLO {
		t.Fatalf("recovery took %v, SLO %v", recovery, recoverySLO)
	}
	for _, n := range []*Node{n0} {
		if owner, _ := n.Lookup("src0"); owner != "n0" {
			t.Fatalf("directory says %q owns src0 after failover, want n0", owner)
		}
	}

	traffic.Wait()
	for name, rt := range map[string]*mbox.Runtime{"src0": srcRT, "dst0": dstRT} {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
	if !n0.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete after recovery")
	}
	for name, rt := range map[string]*mbox.Runtime{"src0": srcRT, "dst0": dstRT} {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain after txns", name)
		}
	}

	// Exact conservation across the process kill: 1 preloaded count +
	// `rounds` live packets per flow, each exactly once, across the orphaned
	// half-move, its rollback, and the recovered move.
	for f := 0; f < flows; f++ {
		k := mbtest.FlowN(f)
		if got := gate.Count(k) + dst.Count(k); got != rounds+1 {
			t.Fatalf("flow %d: combined count %d, want %d", f, got, rounds+1)
		}
	}
	if got := gate.Flows(); got != 0 {
		t.Fatalf("source still holds %d flows after recovered move", got)
	}
	if got := dst.Flows(); got != flows {
		t.Fatalf("destination holds %d flows, want %d", got, flows)
	}
	assertRoutersQuiescent(t, n0)
	if got := n0.LiveTxns(); got != 0 {
		t.Fatalf("%d transactions leaked in the survivor's registry", got)
	}
}
