// Package elastic closes the feedback loop the paper's cloneSupport /
// mergeInternal operations were designed for: a Stratos-style placement
// controller that watches live load signals — per-instance packet rates,
// ingress-ring depth and drops — scores hotspots, and acts through the
// controller's existing northbound API:
//
//   - scale-out: when one instance of an elastic group saturates, clone its
//     shared supporting state (CloneSupport) onto a fresh instance and carve
//     off part of its flowspace with a live per-flow move (MoveInternal with
//     a FieldMatch), then repoint traffic;
//   - scale-in: when load recedes, move the retiring instance's per-flow
//     state back and merge its shared state (MergeInternal) into a survivor.
//
// Decisions are pure functions of (previous sample, current sample, clock),
// so the whole policy is deterministically testable: inject a scripted
// Source and a fake Clock, call Tick, and assert the Decision slice. Two
// dampers keep the loop from thrashing: hysteresis (an instance must stay
// hot for HighWindows consecutive samples, cold for LowWindows) and a
// cooldown window after every action during which the loop only holds.
//
// The loop calls the northbound API exactly as a control application would,
// from a single goroutine, owning no core lock.
package elastic

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
)

// Clock abstracts time for the loop so hysteresis and cooldown arithmetic
// is deterministically testable.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// InstanceSample is one middlebox instance's load snapshot. Counter fields
// are cumulative; the loop differences consecutive samples itself, clamping
// an apparent decrease (a reconnected connection or replaced instance resets
// its counters) to zero so a reset can never masquerade as a load spike.
type InstanceSample struct {
	// MB is the instance name; Group the elastic group it belongs to. An
	// empty group means the instance is not elastically managed.
	MB    string
	Group string
	// Processed is the cumulative packet count through the instance.
	Processed uint64
	// RingDrops is the cumulative ingress-ring shed count.
	RingDrops uint64
	// QueueLen and QueueCap describe the ingress ring: queued packets and
	// ring capacity. QueueCap 0 means depth is unknown (a Source that
	// cannot see the ring) and utilization-based scoring is skipped for the
	// instance.
	QueueLen, QueueCap int
}

// Sample is one observation of the whole deployment.
type Sample struct {
	Instances []InstanceSample
}

// Source produces load samples. Implementations must return internally
// consistent per-series snapshots (see mbox.Runtime.RingStats for the
// tear-proofing the ring signals need); the loop tolerates counter resets
// but not depth/drop pairs from different instants.
type Source interface {
	Sample() Sample
}

// Actuator executes the loop's decisions. Implementations act through the
// northbound API; ClusterActuator is the standard one.
type Actuator interface {
	// ScaleOut grows the group by one instance, splitting flowspace off
	// the named hot instance.
	ScaleOut(group, hot string) error
	// ScaleIn shrinks the group by one instance, merging the retiring
	// instance's state into a survivor.
	ScaleIn(group string) error
}

// Op is a decision kind.
type Op int

// Decision kinds, in descending priority order per tick.
const (
	Hold Op = iota
	ScaleOut
	ScaleIn
)

func (o Op) String() string {
	switch o {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	}
	return "hold"
}

// Decision is one tick's verdict.
type Decision struct {
	Op     Op
	Group  string
	MB     string // hot instance (scale-out)
	Reason string
	// Err records the actuator failure when the action did not take; the
	// decision still consumed the cooldown so a failing action cannot be
	// hammered every tick.
	Err error
}

// Config tunes the placement controller. Zero values select the defaults
// noted per field.
type Config struct {
	// Interval is the sampling period of the background loop (default
	// 50 ms). Tick-driven tests ignore it.
	Interval time.Duration
	// HighUtil is the ingress-ring utilization (queued/capacity) at or
	// above which an instance counts as hot (default 0.5; an instance from
	// a Source that cannot see the ring is never util-hot).
	HighUtil float64
	// HighRate is the per-instance packet rate (pps) at or above which an
	// instance counts as hot (0 = rate never marks hot).
	HighRate float64
	// LowRate is the per-instance packet rate (pps) at or below which a
	// whole group counts as cold (default 0 = groups never go cold).
	LowRate float64
	// HighWindows is how many consecutive hot samples a group needs
	// before a scale-out fires (default 2); LowWindows the consecutive
	// cold samples before a scale-in (default 4). This is the hysteresis:
	// one noisy sample moves no state.
	HighWindows, LowWindows int
	// Cooldown is the quiet window after any action (including a failed
	// one) during which the loop only holds (default 500 ms).
	Cooldown time.Duration
	// MaxInstances bounds every group's size (default 4); no group scales
	// in below one instance.
	MaxInstances int
	// Clock overrides the loop's time source (nil = wall clock); tests
	// inject a fake to drive hysteresis and cooldown deterministically.
	Clock Clock
}

// minInstances is the size below which a group never scales in.
const minInstances = 1

func (c *Config) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.HighUtil == 0 {
		c.HighUtil = 0.5
	}
	if c.HighWindows <= 0 {
		c.HighWindows = 2
	}
	if c.LowWindows <= 0 {
		c.LowWindows = 4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 4
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
}

// Totals is a snapshot of the loop's decision counters.
type Totals struct {
	ScaleOuts, ScaleIns, Holds, Errors uint64
}

// Loop is the placement controller. Create with New, then either Start for
// the background sampling loop or call Tick directly (tests).
type Loop struct {
	cfg Config
	src Source
	act Actuator

	// mu serializes Tick (manual and background) and guards the decision
	// state below. Actions run under it too: the loop is single-track by
	// design, one decision in flight at a time.
	mu            sync.Mutex
	prev          Sample
	prevAt        time.Time
	havePrev      bool
	groups        map[string]*groupState
	cooldownUntil time.Time

	// Decision counters, exported at /metrics as
	// openmb_elastic_{scaleouts,scaleins,holds,errors}_total.
	scaleOuts atomic.Uint64
	scaleIns  atomic.Uint64
	holds     atomic.Uint64
	errors    atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// groupState is the hysteresis memory for one elastic group.
type groupState struct {
	hotStreak  int
	coldStreak int
}

// New creates a placement controller over the given source and actuator.
func New(cfg Config, src Source, act Actuator) *Loop {
	cfg.setDefaults()
	return &Loop{
		cfg:    cfg,
		src:    src,
		act:    act,
		groups: map[string]*groupState{},
		stop:   make(chan struct{}),
	}
}

// Start runs the background sampling loop: one Tick per Config.Interval
// until Close.
func (l *Loop) Start() {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(l.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				l.Tick()
			}
		}
	}()
}

// Close stops the background loop and waits for an in-flight tick to finish.
func (l *Loop) Close() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// Totals returns the decision counters.
func (l *Loop) Totals() Totals {
	return Totals{
		ScaleOuts: l.scaleOuts.Load(),
		ScaleIns:  l.scaleIns.Load(),
		Holds:     l.holds.Load(),
		Errors:    l.errors.Load(),
	}
}

// Collect implements obs.Collector: the loop's decision counters.
func (l *Loop) Collect(e *obs.Emitter) {
	t := l.Totals()
	e.Counter("openmb_elastic_scaleouts_total", "Scale-out actions taken by the elasticity loop.", t.ScaleOuts)
	e.Counter("openmb_elastic_scaleins_total", "Scale-in actions taken by the elasticity loop.", t.ScaleIns)
	e.Counter("openmb_elastic_holds_total", "Loop ticks that decided to take no action.", t.Holds)
	e.Counter("openmb_elastic_errors_total", "Elasticity actions that failed.", t.Errors)
}

// Tick takes one sample, evaluates the policy, and executes at most one
// action. It returns the tick's decisions (always at least one entry).
func (l *Loop) Tick() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()

	now := l.cfg.Clock.Now()
	cur := l.src.Sample()
	decisions := l.evaluate(now, cur)
	l.prev, l.prevAt, l.havePrev = cur, now, true

	acted := false
	for i := range decisions {
		d := &decisions[i]
		switch d.Op {
		case Hold:
			continue
		case ScaleOut:
			d.Err = l.act.ScaleOut(d.Group, d.MB)
			if d.Err == nil {
				l.scaleOuts.Add(1)
			}
		case ScaleIn:
			d.Err = l.act.ScaleIn(d.Group)
			if d.Err == nil {
				l.scaleIns.Add(1)
			}
		}
		if d.Err != nil {
			l.errors.Add(1)
		}
		// An action — even a failed one — consumes the cooldown and the
		// group's streak, so a persistent condition re-fires only after
		// the damper, never every tick.
		acted = true
		l.cooldownUntil = now.Add(l.cfg.Cooldown)
		if g := l.groups[d.Group]; g != nil {
			g.hotStreak, g.coldStreak = 0, 0
		}
	}
	if !acted {
		l.holds.Add(1)
	}
	return decisions
}

// instDelta is one instance's differenced view: rate in pps and drops since
// the previous sample, plus the instantaneous ring utilization.
type instDelta struct {
	s     InstanceSample
	rate  float64
	drops uint64
	util  float64
}

// counterDelta differences two cumulative counters, clamping an apparent
// decrease to zero. A reconnected southbound session or a replaced instance
// restarts its counters at zero; the naive uint64 subtraction would wrap to
// an enormous "rate" and trigger a spurious scale decision (the regression
// tests pin this).
func counterDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// evaluate computes this tick's decisions from the previous and current
// samples. Priority: scale-out beats scale-in, one action per tick;
// everything else is a hold.
func (l *Loop) evaluate(now time.Time, cur Sample) []Decision {
	elapsed := time.Duration(0)
	if l.havePrev {
		elapsed = now.Sub(l.prevAt)
	}
	secs := elapsed.Seconds()

	prevInst := map[string]InstanceSample{}
	if l.havePrev {
		for _, s := range l.prev.Instances {
			prevInst[s.MB] = s
		}
	}

	// Difference every instance and bucket by group. Instances appearing
	// for the first time (fresh clones) contribute no rate or drop delta:
	// their history starts now.
	byGroup := map[string][]instDelta{}
	var groupNames []string
	for _, s := range cur.Instances {
		d := instDelta{s: s}
		if p, ok := prevInst[s.MB]; ok && secs > 0 {
			d.rate = float64(counterDelta(s.Processed, p.Processed)) / secs
			d.drops = counterDelta(s.RingDrops, p.RingDrops)
		}
		if s.QueueCap > 0 {
			d.util = float64(s.QueueLen) / float64(s.QueueCap)
			if d.util > 1 {
				// A sampler feeding queued+in-process depth could exceed
				// the ring capacity; clamp so scoring stays in [0, 1].
				d.util = 1
			}
		}
		if s.Group != "" {
			if _, ok := byGroup[s.Group]; !ok {
				groupNames = append(groupNames, s.Group)
			}
			byGroup[s.Group] = append(byGroup[s.Group], d)
		}
	}
	sort.Strings(groupNames)

	cooling := now.Before(l.cooldownUntil)
	var decisions []Decision

	// Scale decisions, per group. Streaks advance even while cooling —
	// hysteresis measures how long the condition has held, and cooldown
	// separately gates when the loop may act on it.
	for _, name := range groupNames {
		members := byGroup[name]
		g := l.groups[name]
		if g == nil {
			g = &groupState{}
			l.groups[name] = g
		}
		hot, hotMB, hotWhy := l.hottest(members)
		cold := l.isCold(members)
		switch {
		case hot:
			g.hotStreak++
			g.coldStreak = 0
		case cold:
			g.coldStreak++
			g.hotStreak = 0
		default:
			g.hotStreak, g.coldStreak = 0, 0
		}
		if len(decisions) > 0 {
			continue // one action per tick; later groups wait their turn
		}
		switch {
		case g.hotStreak >= l.cfg.HighWindows && !cooling && len(members) < l.cfg.MaxInstances:
			decisions = append(decisions, Decision{
				Op: ScaleOut, Group: name, MB: hotMB,
				Reason: fmt.Sprintf("%s hot %d windows (%s)", hotMB, g.hotStreak, hotWhy),
			})
		case g.coldStreak >= l.cfg.LowWindows && !cooling && len(members) > minInstances:
			decisions = append(decisions, Decision{
				Op: ScaleIn, Group: name,
				Reason: fmt.Sprintf("group cold %d windows", g.coldStreak),
			})
		}
	}

	if len(decisions) == 0 {
		decisions = append(decisions, Decision{Op: Hold, Reason: "no hotspot"})
	}
	return decisions
}

// hottest reports whether any member is hot and which one is hottest,
// scoring by ring utilization first, packet rate second. Fresh drops alone
// also mark a member hot: a shedding ring is saturated by definition.
func (l *Loop) hottest(members []instDelta) (hot bool, mb, why string) {
	best := -1.0
	for _, d := range members {
		memberHot, memberWhy := false, ""
		switch {
		case d.s.QueueCap > 0 && d.util >= l.cfg.HighUtil:
			memberHot, memberWhy = true, fmt.Sprintf("ring %.0f%% full", d.util*100)
		case d.drops > 0:
			memberHot, memberWhy = true, fmt.Sprintf("%d ring drops", d.drops)
		case l.cfg.HighRate > 0 && d.rate >= l.cfg.HighRate:
			memberHot, memberWhy = true, fmt.Sprintf("%.0f pps", d.rate)
		}
		if !memberHot {
			continue
		}
		score := d.util*1e9 + d.rate
		if score > best {
			best, hot, mb, why = score, true, d.s.MB, memberWhy
		}
	}
	return hot, mb, why
}

// isCold reports whether the whole group is cold: every member under the
// low-rate watermark, sheds nothing, and holds a near-empty ring.
func (l *Loop) isCold(members []instDelta) bool {
	if l.cfg.LowRate <= 0 || !l.havePrev {
		return false
	}
	for _, d := range members {
		if d.rate > l.cfg.LowRate || d.drops > 0 || d.util > l.cfg.HighUtil/2 {
			return false
		}
	}
	return true
}
