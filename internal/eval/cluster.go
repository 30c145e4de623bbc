package eval

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file adds the controller-cluster experiment: a Figure 10(b)-style
// concurrent-move sweep run against a replicated controller, with live
// ownership handoffs forced while the moves are in flight. The paper's
// Figure 10(b) asks how move latency scales with simultaneous operations on
// ONE controller; this asks what partitioning the middleboxes over replicas
// — and rebalancing them mid-move — costs or buys on the same workload.

// RebalanceConfig parameterizes RebalanceUnderLoad.
type RebalanceConfig struct {
	// Pairs is the number of simultaneous moves (default 4).
	Pairs int
	// Chunks is the per-source resident state (default 1000).
	Chunks int
	// Replicas are the cluster sizes to sweep (default {1, 3}; 1 is the
	// single-controller ablation).
	Replicas []int
	// Handoffs is how many live rebalances to force while the moves run
	// (default 4; ignored at replicas=1 where there is nowhere to go).
	Handoffs int
}

func (c *RebalanceConfig) setDefaults() {
	if c.Pairs == 0 {
		c.Pairs = 4
	}
	if c.Chunks == 0 {
		c.Chunks = 1000
	}
	if len(c.Replicas) == 0 {
		c.Replicas = []int{1, 3}
	}
	if c.Handoffs == 0 {
		c.Handoffs = 4
	}
}

// RebalanceUnderLoad runs `pairs` simultaneous moves of `chunks` chunks on
// a controller cluster, forcing live handoffs mid-move, for each replica
// count. Loss-freedom is verified after every run (the destination must
// hold exactly the preloaded counts); the table reports average move
// latency and the handoffs performed, so the replicas=1 row is directly
// comparable to the Figure 10(b) single-controller numbers.
func RebalanceUnderLoad(cfg RebalanceConfig) (*Table, error) {
	cfg.setDefaults()
	t := &Table{
		ID:      "F10c",
		Title:   "cluster: avg time per moveInternal under live replica handoffs",
		Columns: []string{"replicas", "simultaneous", "chunks", "handoffs", "avg_move"},
	}
	for _, replicas := range cfg.Replicas {
		handoffs := cfg.Handoffs
		if replicas < 2 {
			handoffs = 0
		}
		avg, performed, err := timeClusterMoves(cfg.Pairs, cfg.Chunks, replicas, handoffs)
		if err != nil {
			return nil, err
		}
		t.AddRow(replicas, cfg.Pairs, cfg.Chunks, performed, avg)
	}
	t.Notes = append(t.Notes,
		"replicas=1 is the single-controller ablation (directly comparable to F10b)",
		"handoffs freeze one MB's flowspace each, mid-move; loss-freedom is asserted after every run")
	return t, nil
}

// timeClusterMoves builds a cluster rig, runs the concurrent moves with
// handoffs rotating middleboxes across replicas mid-flight, verifies
// conservation, and returns the average move latency and handoffs done.
func timeClusterMoves(pairs, chunks, replicas, handoffs int) (time.Duration, uint64, error) {
	cl := core.NewCluster(core.ClusterOptions{
		Replicas: replicas,
		Controller: core.Options{
			QuietPeriod: 50 * time.Millisecond,
		},
	})
	defer cl.Close()
	tr := sbi.NewMemTransport()
	if err := cl.Serve(tr, "cluster"); err != nil {
		return 0, 0, err
	}

	srcs := make([]*mbtest.CounterLogic, pairs)
	dsts := make([]*mbtest.CounterLogic, pairs)
	var rts []*mbox.Runtime
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	attach := func(name string, logic mbox.Logic) error {
		rt := mbox.New(name, logic, mbox.Options{})
		if err := rt.Connect(tr, "cluster"); err != nil {
			rt.Close()
			return err
		}
		rts = append(rts, rt)
		return cl.WaitForMB(name, 5*time.Second)
	}
	for i := 0; i < pairs; i++ {
		srcs[i] = mbtest.NewCounterLogic(202)
		srcs[i].Preload(chunks)
		dsts[i] = mbtest.NewCounterLogic(202)
		if err := attach(fmt.Sprintf("src%d", i), srcs[i]); err != nil {
			return 0, 0, err
		}
		if err := attach(fmt.Sprintf("dst%d", i), dsts[i]); err != nil {
			return 0, 0, err
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, pairs)
	times := make([]time.Duration, pairs)
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			errs[i] = cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
			times[i] = time.Since(start)
		}(i)
	}

	// Force the handoffs while the moves run: rotate middleboxes to the
	// next replica, spread over the expected move window.
	before := cl.Handoffs()
	names := cl.Middleboxes()
	for h := 0; h < handoffs; h++ {
		name := names[h%len(names)]
		cur, err := cl.ReplicaOf(name)
		if err != nil {
			continue
		}
		_ = cl.Rebalance(name, (cur+1)%replicas)
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if !cl.WaitTxns(120 * time.Second) {
		return 0, 0, fmt.Errorf("eval: cluster transactions did not complete")
	}
	performed := cl.Handoffs() - before

	// Loss-freedom: every preloaded chunk landed at its destination
	// exactly once, no source retained state.
	for i := 0; i < pairs; i++ {
		if got := dsts[i].SumCounts(); got != uint64(chunks) {
			return 0, 0, fmt.Errorf("eval: pair %d: destination sum %d, want %d (lost or duplicated state under handoff)", i, got, chunks)
		}
		if got := srcs[i].Flows(); got != 0 {
			return 0, 0, fmt.Errorf("eval: pair %d: source retains %d flows", i, got)
		}
	}

	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	return sum / time.Duration(pairs), performed, nil
}
