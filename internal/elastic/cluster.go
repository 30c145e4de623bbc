package elastic

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/obs"
	"openmb/internal/packet"
)

// spawnWait bounds how long a scale-out waits for the freshly spawned
// instance to register with the controller before giving up.
const spawnWait = 2 * time.Second

// txnSettle bounds the transaction-quiescence waits inside ScaleIn. A move's
// source-side delete is deferred background completion (it fires after the
// event quiet period); merging state back into an instance that still has a
// pending outbound delete would hand that delete the merged records to
// destroy, so scale-in refuses to re-import state until the registry drains.
const txnSettle = 15 * time.Second

// ClusterSource samples the co-located middlebox runtimes registered with
// Register: their ingress ring via the tear-proof mbox.Runtime.RingStats and
// their packet counters via mbox.Runtime.Metrics. A member registered
// without a runtime is not sampled.
type ClusterSource struct {
	mu    sync.Mutex
	insts map[string]regEntry
}

type regEntry struct {
	group string
	rt    *mbox.Runtime
}

// NewClusterSource creates an empty source.
func NewClusterSource() *ClusterSource {
	return &ClusterSource{insts: map[string]regEntry{}}
}

// Register makes the runtime an elastically managed instance of the group.
// Group "" registers it for sampling without scale management.
func (s *ClusterSource) Register(group, name string, rt *mbox.Runtime) {
	s.mu.Lock()
	s.insts[name] = regEntry{group: group, rt: rt}
	s.mu.Unlock()
}

// Deregister removes the instance from sampling (a retiring clone, or one
// whose runtime is gone).
func (s *ClusterSource) Deregister(name string) {
	s.mu.Lock()
	delete(s.insts, name)
	s.mu.Unlock()
}

// Sample implements Source.
func (s *ClusterSource) Sample() Sample {
	s.mu.Lock()
	reg := make(map[string]regEntry, len(s.insts))
	for name, e := range s.insts {
		if e.rt != nil {
			reg[name] = e
		}
	}
	s.mu.Unlock()

	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var out Sample
	for _, name := range names {
		e := reg[name]
		m := e.rt.Metrics()
		rs := e.rt.RingStats()
		out.Instances = append(out.Instances, InstanceSample{
			MB:        name,
			Group:     e.group,
			Processed: m.Processed + m.Replayed,
			RingDrops: rs.DroppedPackets + rs.DroppedReplays,
			QueueLen:  rs.Live + rs.Replay,
			QueueCap:  rs.Capacity,
		})
	}
	return out
}

// Member is one instance of an elastic group as the actuator tracks it: the
// cluster-visible name plus the co-located runtime handle the driver spawned.
type Member struct {
	Name    string
	Runtime *mbox.Runtime
}

// GroupDriver supplies the deployment-specific halves of scaling that the
// northbound API cannot: creating and destroying instances and steering
// traffic. The actuator owns the state-movement choreography; the driver
// owns everything outside the southbound protocol.
type GroupDriver interface {
	// Spawn creates, connects, and returns instance #ordinal of the group.
	// The actuator waits for it to register before touching its state.
	Spawn(group string, ordinal int) (*Member, error)
	// SplitMatch chooses the flowspace slice to carve off `from` and hand
	// to the fresh `to` (e.g. half of from's prefix range).
	SplitMatch(group string, from, to *Member) packet.FieldMatch
	// Route repoints traffic across the group's current members; called
	// after state has moved, never concurrently with itself.
	Route(group string, members []*Member)
	// Retire disposes of a merged-out member (expand the survivor's range,
	// close the runtime). Its state has already moved.
	Retire(group string, m *Member)
}

// ClusterActuator executes loop decisions against a live controller using
// the existing northbound operations: CloneSupport + MoveInternal for
// scale-out, MoveInternal + MergeInternal for scale-in.
//
// Scale-in is LIFO: the retiring instance is always the most recently
// spawned clone and its state merges back into the member it was split
// from, so repeated scale-out/scale-in cycles retrace their own splits.
type ClusterActuator struct {
	c   *core.Controller
	src *ClusterSource
	drv GroupDriver

	// mu guards the membership book only; northbound operations run outside
	// it so driver callbacks may consult Members.
	mu     sync.Mutex
	groups map[string]*memberBook

	// Spawn/retire outcome counters, exported via Collect.
	spawns        atomic.Uint64
	spawnFailures atomic.Uint64
	retires       atomic.Uint64
}

type memberBook struct {
	members []*Member
	parent  map[string]string // clone name -> name it split from
	ordinal int
}

// NewClusterActuator creates an actuator over the controller, acting through
// the driver. src may be nil when no sampling registration is wanted.
func NewClusterActuator(c *core.Controller, src *ClusterSource, drv GroupDriver) *ClusterActuator {
	return &ClusterActuator{c: c, src: src, drv: drv, groups: map[string]*memberBook{}}
}

// Seed declares an already-running instance as the group's base member and
// registers it with the source. Every group needs at least one seed before
// the loop can scale it.
func (a *ClusterActuator) Seed(group string, m *Member) {
	a.mu.Lock()
	b := a.book(group)
	b.members = append(b.members, m)
	b.ordinal++
	a.mu.Unlock()
	if a.src != nil {
		a.src.Register(group, m.Name, m.Runtime)
	}
}

// Members returns the group's current members, spawn-ordered.
func (a *ClusterActuator) Members(group string) []*Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.groups[group]
	if b == nil {
		return nil
	}
	return append([]*Member(nil), b.members...)
}

func (a *ClusterActuator) book(group string) *memberBook {
	b := a.groups[group]
	if b == nil {
		b = &memberBook{parent: map[string]string{}}
		a.groups[group] = b
	}
	return b
}

// ScaleOut implements Actuator: spawn a clone, copy the hot instance's
// shared supporting state, carve off part of its flowspace with a live
// per-flow move, then repoint traffic. Routing switches only after the
// move completes — during the move the hot instance keeps receiving and
// marks/forwards the moving flows, so no packet is lost or double-handled.
func (a *ClusterActuator) ScaleOut(group, hot string) error {
	a.mu.Lock()
	b := a.book(group)
	var hotM *Member
	for _, m := range b.members {
		if m.Name == hot {
			hotM = m
		}
	}
	ordinal := b.ordinal
	b.ordinal++
	a.mu.Unlock()
	if hotM == nil {
		return fmt.Errorf("elastic: group %q: hot instance %q is not a member", group, hot)
	}

	clone, err := a.drv.Spawn(group, ordinal)
	if err != nil {
		a.spawnFailures.Add(1)
		return fmt.Errorf("elastic: spawn %s#%d: %w", group, ordinal, err)
	}
	if err := a.c.WaitForMB(clone.Name, spawnWait); err != nil {
		a.spawnFailures.Add(1)
		a.retire(group, clone)
		return fmt.Errorf("elastic: clone %q never registered: %w", clone.Name, err)
	}
	a.spawns.Add(1)
	if err := a.c.CloneSupport(hot, clone.Name); err != nil {
		a.retire(group, clone)
		return fmt.Errorf("elastic: clone support %s -> %s: %w", hot, clone.Name, err)
	}
	match := a.drv.SplitMatch(group, hotM, clone)
	if err := a.c.MoveInternal(hot, clone.Name, match); err != nil {
		a.retire(group, clone)
		return fmt.Errorf("elastic: split move %s -> %s: %w", hot, clone.Name, err)
	}

	a.mu.Lock()
	b.members = append(b.members, clone)
	b.parent[clone.Name] = hot
	members := append([]*Member(nil), b.members...)
	a.mu.Unlock()
	if a.src != nil {
		a.src.Register(group, clone.Name, clone.Runtime)
	}
	a.drv.Route(group, members)
	return nil
}

// ScaleIn implements Actuator: deroute the most recent clone, drain its
// queue, move its per-flow state back to the member it split from, merge
// its shared state, and retire it. Deroute happens first so no new packet
// races the move; the drain bounds how long in-queue packets may still
// mutate the retiring state before the move snapshots it.
func (a *ClusterActuator) ScaleIn(group string) error {
	a.mu.Lock()
	b := a.groups[group]
	if b == nil || len(b.members) < 2 {
		a.mu.Unlock()
		return fmt.Errorf("elastic: group %q: nothing to scale in", group)
	}
	victim := b.members[len(b.members)-1]
	survivorName := b.parent[victim.Name]
	var survivor *Member
	for _, m := range b.members {
		if m.Name == survivorName {
			survivor = m
		}
	}
	if survivor == nil {
		// LIFO discipline makes this unreachable (a clone's parent outlives
		// it), but fall back to the seed rather than wedging the group.
		survivor = b.members[0]
	}
	b.members = b.members[:len(b.members)-1]
	delete(b.parent, victim.Name)
	remaining := append([]*Member(nil), b.members...)
	a.mu.Unlock()

	if a.src != nil {
		a.src.Deregister(victim.Name)
	}
	a.drv.Route(group, remaining)
	if victim.Runtime != nil {
		victim.Runtime.Drain(spawnWait)
	}
	// Outstanding moves must finish before state flows back INTO the
	// survivor: the earlier scale-out's deferred source-side delete (issued
	// after its quiet period) would otherwise wipe the very records this
	// merge is about to return. Derouting already cut the event stream that
	// keeps those transactions alive, so this settles in ~one quiet period.
	if !a.c.WaitTxns(txnSettle) {
		return fmt.Errorf("elastic: group %q: transactions never settled before scale-in merge", group)
	}
	if err := a.c.MoveInternal(victim.Name, survivor.Name, packet.MatchAll); err != nil {
		return fmt.Errorf("elastic: merge move %s -> %s: %w", victim.Name, survivor.Name, err)
	}
	if err := a.c.MergeInternal(victim.Name, survivor.Name); err != nil {
		return fmt.Errorf("elastic: merge shared %s -> %s: %w", victim.Name, survivor.Name, err)
	}
	// The merge-move's own source delete is deferred too; retire only once
	// it has landed, so the victim really is empty when the driver disposes
	// of it.
	if !a.c.WaitTxns(txnSettle) {
		return fmt.Errorf("elastic: group %q: merge transactions never settled", group)
	}
	a.retire(group, victim)
	return nil
}

// retire counts and delegates a member disposal.
func (a *ClusterActuator) retire(group string, m *Member) {
	a.retires.Add(1)
	a.drv.Retire(group, m)
}

// Collect implements obs.Collector: spawn/retire outcomes of the actuator's
// scaling actions.
func (a *ClusterActuator) Collect(e *obs.Emitter) {
	e.Counter("openmb_elastic_spawns_total", "Group members spawned and registered by scale-outs.", a.spawns.Load())
	e.Counter("openmb_elastic_spawn_failures_total", "Spawn attempts that failed or never registered.", a.spawnFailures.Load())
	e.Counter("openmb_elastic_retires_total", "Group members retired (scale-in merges and failed-spawn cleanups).", a.retires.Load())
}
