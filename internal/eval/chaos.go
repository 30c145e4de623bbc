package eval

import (
	"fmt"
	"sync"
	"time"

	"openmb/internal/core"
	"openmb/internal/faults"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file adds the failure-recovery experiment: the Figure 10(b)-style
// concurrent-move workload run on a 3-replica cluster, with the coordinating
// replica killed mid-flight over a fault-injecting transport. The paper's
// evaluation assumes a well-behaved control channel; this measures what the
// robustness layer (heartbeats, transaction abort/restart, rollback) costs
// when nothing fails and how fast it recovers when something does.

// ChaosConfig parameterizes RecoveryUnderFailure.
type ChaosConfig struct {
	// Pairs is the number of simultaneous moves (default 2).
	Pairs int
	// Chunks is the per-source resident state (default 800; large enough
	// that the replica kill lands while chunk streams are in flight).
	Chunks int
}

func (c *ChaosConfig) setDefaults() {
	if c.Pairs == 0 {
		c.Pairs = 2
	}
	if c.Chunks == 0 {
		c.Chunks = 800
	}
}

// RecoveryUnderFailure runs the concurrent-move workload three ways on a
// 3-replica cluster: heartbeats off on a clean transport (baseline),
// heartbeats on with a clean transport (the faults-off ablation — avg_move
// parity against the baseline is the "heartbeats cost nothing" claim), and
// heartbeats on over a fault-injecting transport (partial writes, jittered
// delays) with the replica coordinating the moves killed mid-flight.
// Loss-freedom is asserted after every run; the chaos row's recovery column
// is the time from FailReplica until every move has returned.
func RecoveryUnderFailure(cfg ChaosConfig) (*Table, error) {
	cfg.setDefaults()
	t := &Table{
		ID:      "F12",
		Title:   "failure recovery: concurrent moves with the coordinator replica killed mid-flight",
		Columns: []string{"faults", "heartbeat", "pairs", "chunks", "avg_move", "recovery"},
	}
	rows := []struct{ heartbeat, chaos bool }{
		{false, false},
		{true, false},
		{true, true},
	}
	for _, r := range rows {
		avg, recovery, err := runRecovery(cfg.Pairs, cfg.Chunks, r.heartbeat, r.chaos)
		if err != nil {
			return nil, err
		}
		rec := "-"
		if r.chaos {
			rec = recovery.Round(time.Microsecond).String()
		}
		t.AddRow(onOff(r.chaos), onOff(r.heartbeat), cfg.Pairs, cfg.Chunks, avg, rec)
	}
	t.Notes = append(t.Notes,
		"row 2 vs row 1 is the heartbeat ablation: avg_move parity shows liveness probing adds no overhead",
		"row 3 kills the replica coordinating src0's move over a faulty wire; moves retry on the survivors",
		"loss-freedom (destination sums exact, sources empty) is asserted after every run")
	return t, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// runRecovery builds a 3-replica cluster rig, runs pairs concurrent moves,
// optionally killing the coordinating replica a few milliseconds in, and
// returns the average move latency plus (for chaos runs) the recovery time
// from FailReplica to the last move returning.
func runRecovery(pairs, chunks int, heartbeat, chaos bool) (avg, recovery time.Duration, err error) {
	opts := core.Options{
		QuietPeriod: 50 * time.Millisecond,
	}
	if heartbeat {
		opts.HeartbeatInterval = 25 * time.Millisecond
	}
	cl := core.NewCluster(core.ClusterOptions{Replicas: 3, Controller: opts})
	defer cl.Close()
	var tr sbi.Transport = sbi.NewMemTransport()
	if chaos {
		tr = faults.New(sbi.NewMemTransport(), faults.Options{
			Seed:          11,
			PartialWrites: true,
			Delay:         200 * time.Microsecond,
			DelayProb:     0.2,
		})
	}
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

	if chaos {
		// Let the chunk streams get into flight, then kill the replica
		// coordinating src0's move. MoveInternal aborts, rolls back, and
		// retries against the surviving replicas.
		time.Sleep(5 * time.Millisecond)
		coord, err := cl.ReplicaOf("src0")
		if err != nil {
			return 0, 0, err
		}
		failStart := time.Now()
		if err := cl.FailReplica(coord); err != nil {
			return 0, 0, err
		}
		wg.Wait()
		recovery = time.Since(failStart)
	} else {
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if !cl.WaitTxns(120 * time.Second) {
		return 0, 0, fmt.Errorf("eval: cluster transactions did not complete")
	}

	// Loss-freedom: every preloaded chunk landed at its destination exactly
	// once even across the abort/rollback/retry path, no source kept state.
	for i := 0; i < pairs; i++ {
		if got := dsts[i].SumCounts(); got != uint64(chunks) {
			return 0, 0, fmt.Errorf("eval: pair %d: destination sum %d, want %d (lost or duplicated state under failure)", i, got, chunks)
		}
		if got := srcs[i].Flows(); got != 0 {
			return 0, 0, fmt.Errorf("eval: pair %d: source retains %d flows", i, got)
		}
	}

	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	return sum / time.Duration(pairs), recovery, nil
}
