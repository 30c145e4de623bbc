package core

import (
	"fmt"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file implements replica-failure recovery: declaring one cluster
// replica dead and migrating everything it owns — connections, routing
// state, pending quiet-period completions — onto the survivors, plus the
// rollback that lets an aborted cross-partition move restart loss-free.
//
// The migration is the handoff protocol of handoff.go run once per
// connection the dead replica owns, with the target chosen by the directory
// after the dead replica's ring points have been pruned. In-flight
// transactions the dead replica coordinates are marked aborted through the
// cluster's shared registry; the move pipeline notices at its next chunk or
// put and unwinds, and Cluster.MoveInternal rolls the half-applied transfer
// back and restarts it on the connection's new owner.
//
// Lock order during reassignment (matching Rebalance exactly, so failure
// recovery and planned rebalancing can never deadlock each other):
// Cluster.mu -> mbConn.handoffMu(write) -> Controller.mu / router shard
// locks. The directory's lock nests innermost and is never held across any
// of the others.

// FailReplica declares replica i dead and recovers everything it owns. The
// replica's process-level resources (listener goroutines, live southbound
// connections) are left untouched — in-process, "failure" means the control
// machinery stops coordinating, which is exactly what a crashed controller
// process would leave behind from the survivors' point of view. Steps:
//
//  1. mark the replica failed — new transactions refuse to start there;
//  2. prune it from the directory, so owner() resolves to survivors;
//  3. sweep the shared transaction registry, marking its in-flight
//     transactions aborted (the per-flow move pipeline unwinds at its next
//     step; completed-data-phase moves and shared transfers run on);
//  4. hand each of its connections off to the directory's new owner via
//     the freeze → transfer → switch protocol;
//  5. redirect its completer to a survivor, migrating pending quiet-period
//     completions with their due times intact.
//
// Calling it on an already-failed replica is an error; so is failing the
// last live replica (there is nowhere to recover to).
func (cl *Cluster) FailReplica(i int) error {
	if i < 0 || i >= len(cl.replicas) {
		return fmt.Errorf("core: fail replica: no replica %d", i)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	dead := cl.replicas[i]
	survivor := -1
	for j, c := range cl.replicas {
		if j != i && !c.failed.Load() {
			survivor = j
			break
		}
	}
	if survivor < 0 {
		return fmt.Errorf("core: fail replica %d: no live replica to recover to", i)
	}
	if !dead.failed.CompareAndSwap(false, true) {
		return fmt.Errorf("core: replica %d already failed", i)
	}

	// The directory must stop answering with the dead replica before any
	// migration target is picked from it.
	cl.dir.removeReplica(i)

	// Abort the dead coordinator's in-flight transactions. Connections are
	// still frozen one at a time below, but the abort flag is what stops
	// the move pipelines (which run on their own goroutines, outside any
	// freeze) from installing further state at their destinations.
	cl.registry.abortController(dead)

	// Migrate every connection the dead replica owns. Each handoff is the
	// Rebalance critical section with the target dictated by the pruned
	// directory; errors on individual names (disconnected mid-freeze) are
	// skipped — the disconnect cleanup owns those connections now.
	for _, name := range dead.Middleboxes() {
		target := cl.dir.owner(name)
		_ = cl.failoverMB(dead, name, target)
	}

	// Pending completions (quiet-period deletes of moves whose data phase
	// finished) must run on live machinery, with their due times intact.
	dead.completer.redirectTo(cl.replicas[survivor].completer)
	return nil
}

// failoverMB moves one middlebox from a failed replica to the target via
// the freeze → transfer → switch protocol. It is Rebalance's critical
// section without the top-level Cluster.mu acquisition (FailReplica already
// holds it) and without the no-op-same-replica case (the directory can no
// longer answer with the dead replica).
func (cl *Cluster) failoverMB(from *Controller, mbName string, target int) error {
	to := cl.replicas[target]
	from.mu.Lock()
	mb := from.mbs[mbName]
	from.mu.Unlock()
	if mb == nil {
		return fmt.Errorf("core: failover %q: not registered", mbName)
	}

	// FREEZE: wait out in-flight router operations, block new ones.
	mb.handoffMu.Lock()
	defer mb.handoffMu.Unlock()
	if mb.controller() != from {
		return fmt.Errorf("core: failover %q: ownership changed mid-freeze", mbName)
	}
	from.mu.Lock()
	stillOwned := from.mbs[mbName] == mb
	from.mu.Unlock()
	if !stillOwned {
		return fmt.Errorf("core: failover %q: disconnected mid-freeze", mbName)
	}

	// TRANSFER: dead router -> ownership-transfer payload -> survivor.
	h := from.router.exportHandoff(mb)
	if _, err := to.router.importHandoff(mb, h, cl.registry); err != nil {
		_, _ = from.router.importHandoff(mb, h, cl.registry)
		return err
	}

	// SWITCH: insert at the target before deleting from the dead replica,
	// so the name stays resolvable throughout (same ordering argument as
	// Rebalance).
	to.mu.Lock()
	if _, dup := to.mbs[mbName]; dup {
		to.mu.Unlock()
		restored := to.router.exportHandoff(mb)
		_, _ = from.router.importHandoff(mb, restored, cl.registry)
		return fmt.Errorf("core: failover %q: name already registered at replica %d", mbName, target)
	}
	to.mbs[mbName] = mb
	to.mu.Unlock()
	mb.ctrl.Store(to)
	cl.dir.assign(mbName, target)
	to.wakeWaiters(mbName)
	from.mu.Lock()
	delete(from.mbs, mbName)
	from.mu.Unlock()
	cl.handoffs.Add(1)
	return nil
}

// rollbackMove restores "the move never happened" after a replica failure
// aborted a per-flow move mid-data-phase, so MoveInternal can restart it
// cleanly. Conservation rests on one fact about the middlebox runtime: live
// packets are ALWAYS counted at the source, marked or not (marks only
// trigger reprocess events; replay-time skips apply to replays, not live
// traffic). The source therefore still holds a complete, correct copy —
// snapshot values plus every in-window increment — and rollback reduces to
// wiping the destination's partial copy and the transfer's bookkeeping:
//
//  1. clear the source's per-flow transaction marks under m. The source
//     cancels every get still running under m and waits for it to exit
//     before it clears, so by the time this returns the aborted epoch's get
//     streams have finished at the source and no further key under m is
//     marked — no new reprocess events can be raised;
//  2. sleep one quiet period: events raised just before the clear may still
//     be in the source's coalescing outbox or on the wire, and replays the
//     controller already forwarded may still be in the destination's
//     ingress ring (the same timing argument the normal completion path's
//     quiet period rests on);
//  3. drain the source's event pipeline (received-but-unrouted events), so
//     every stale-epoch event has landed in an orphan list;
//  4. purge those orphans: their packets' increments are inside the
//     restart's snapshot, so letting the restart adopt and replay them
//     would double-count;
//  5. delete the half-installed per-flow state at the destination. This
//     presumes the destination holds no independent state under m — the
//     standing precondition for a per-flow move to be meaningful at all.
func (cl *Cluster) rollbackMove(src, dst *mbConn, m packet.FieldMatch) {
	// Options come from the source's current (live) owner.
	opts := src.controller().opts

	_, _ = src.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpEndTransaction, Match: m}, opts.CallTimeout)

	time.Sleep(opts.QuietPeriod)
	src.drainEvents(opts.CallTimeout)

	src.routingLock()
	src.controller().router.purgeOrphanMatch(src, m)
	src.routingUnlock()

	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelSupportPerflow, Match: m}, opts.CallTimeout)
	_, _ = dst.call(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpDelReportPerflow, Match: m}, opts.CallTimeout)
}
