package eval

import (
	"fmt"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/core"
	"openmb/internal/elastic"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file adds the elasticity experiment: a flash-crowd ramp driven
// through the deadline pacer against a middlebox group whose per-packet
// service time is latency-bound (each packet waits on a simulated downstream
// lookup), with the Stratos-style elasticity loop free to clone and merge
// instances while the crowd arrives. The paper scales instances by hand and
// measures the data-plane cost of one move (Figures 7/10); this closes the
// loop the paper leaves to the operator and asserts the end-to-end contract:
// the fleet grows under the crowd, shrinks after it, and not one packet or
// per-flow record is lost along the way. The loop-off ablation row
// (FlashCrowdConfig.Rows) rides the identical workload on the frozen fleet
// and is expected to shed.

// FlashCrowdConfig parameterizes FlashCrowd.
type FlashCrowdConfig struct {
	// Flows is the flowspace width (power of two <= 256; default 64).
	Flows int
	// QueueSize bounds each instance's ingress ring (default 512).
	QueueSize int
	// PerPacket is the simulated downstream wait per packet (default 1ms;
	// host timer granularity caps one instance near 1/PerPacket pps).
	PerPacket time.Duration
	// Warm/Peak/Cool are the three phase lengths (defaults 300ms, 1.6s,
	// 1.2s); WarmRate/PeakRate/CoolRate the corresponding aggregate packet
	// rates (defaults 300, 2000, 200 pps). The defaults put the peak at
	// roughly 2.3x one instance's capacity, so the unscaled ablation must
	// overflow its ring while a fleet of three or four absorbs it.
	Warm, Peak, Cool             time.Duration
	WarmRate, PeakRate, CoolRate int
	// SLO bounds the controller's p99 move latency (default 1.5s).
	SLO time.Duration
	// Rows selects which rows to run: true = loop on, false = the frozen
	// ablation (default both, on first).
	Rows []bool
}

func (c *FlashCrowdConfig) setDefaults() {
	if c.Flows == 0 {
		c.Flows = 64
	}
	if c.QueueSize == 0 {
		c.QueueSize = 512
	}
	if c.PerPacket == 0 {
		c.PerPacket = time.Millisecond
	}
	if c.Warm == 0 {
		c.Warm = 300 * time.Millisecond
	}
	if c.Peak == 0 {
		c.Peak = 1600 * time.Millisecond
	}
	if c.Cool == 0 {
		c.Cool = 1200 * time.Millisecond
	}
	if c.WarmRate == 0 {
		c.WarmRate = 300
	}
	if c.PeakRate == 0 {
		c.PeakRate = 2000
	}
	if c.CoolRate == 0 {
		c.CoolRate = 200
	}
	if c.SLO == 0 {
		c.SLO = 1500 * time.Millisecond
	}
	if c.Rows == nil {
		c.Rows = []bool{true, false}
	}
}

// FlashCrowd ramps a heavy-tailed workload warm -> peak -> cool through the
// deadline pacer while the elasticity loop resizes the group, then verifies
// the equivalence contract. The loop-on row must finish with zero ring
// drops, exact per-flow conservation across every instance that ever
// existed (retired clones included), at least one scale-out AND one
// scale-in, and the controller's p99 move latency inside the SLO. The
// loop-off row must demonstrate the crowd was real: the frozen instance has
// to shed packets (or blow the SLO), and its sheds must account exactly for
// the per-flow shortfall.
func FlashCrowd(cfg FlashCrowdConfig) (*Table, error) {
	cfg.setDefaults()
	if cfg.Flows&(cfg.Flows-1) != 0 || cfg.Flows > 256 {
		return nil, fmt.Errorf("flashcrowd: Flows must be a power of two <= 256, got %d", cfg.Flows)
	}
	t := &Table{
		ID:      "elastic",
		Title:   "flash crowd: elasticity loop vs frozen fleet on the same ramp",
		Columns: []string{"loop", "peak_pps", "members_max", "scaleouts", "scaleins", "drops", "p99_move"},
	}
	for _, on := range cfg.Rows {
		r, err := runFlashCrowd(cfg, on)
		if err != nil {
			return nil, fmt.Errorf("flashcrowd loop=%s: %w", onOff(on), err)
		}
		p99 := "-"
		if on {
			p99 = r.p99Move.Round(time.Microsecond).String()
		}
		t.AddRow(onOff(on), cfg.PeakRate, r.maxMembers, int(r.totals.ScaleOuts), int(r.totals.ScaleIns), int(r.drops), p99)
		recordElastic(r.totals, r.drops)
	}
	t.Notes = append(t.Notes,
		"loop-on asserts zero drops, exact per-flow conservation over every instance ever spawned, >=1 scale-out and >=1 scale-in, p99 move inside SLO",
		"loop-off rides the identical ramp on one frozen instance; its ring must shed, and sheds must equal the per-flow shortfall exactly",
		fmt.Sprintf("per-packet service wait %v caps one instance near %d pps; the peak is ~%.1fx that",
			cfg.PerPacket, int(time.Second/cfg.PerPacket), float64(cfg.PeakRate)*float64(cfg.PerPacket)/float64(time.Second)))
	return t, nil
}

type fcResult struct {
	totals     elastic.Totals
	maxMembers int
	drops      uint64
	p99Move    time.Duration
}

// runFlashCrowd builds a 2-replica cluster rig with one seeded slow
// instance, runs the three-phase ramp, and (loop on) waits for the fleet to
// converge back to one member before auditing.
func runFlashCrowd(cfg FlashCrowdConfig, loopOn bool) (fcResult, error) {
	var res fcResult
	cl := core.NewCluster(core.ClusterOptions{
		Replicas: 2,
		Controller: core.Options{
			QuietPeriod: 50 * time.Millisecond,
		},
	})
	defer cl.Close()
	tr := sbi.NewMemTransport()
	if err := cl.Serve(tr, "cluster"); err != nil {
		return res, err
	}

	drv := newFcDriver(cl, tr, cfg)
	defer drv.closeAll()
	seed, err := drv.seed("fc0")
	if err != nil {
		return res, err
	}
	src := elastic.NewClusterSource(cl)
	act := elastic.NewClusterActuator(cl, src, drv)
	act.Seed("fc", seed)

	var loop *elastic.Loop
	if loopOn {
		loop = elastic.New(elastic.Config{
			Interval:     20 * time.Millisecond,
			HighUtil:     0.25,
			LowRate:      120,
			HighWindows:  2,
			LowWindows:   3,
			Cooldown:     150 * time.Millisecond,
			MaxInstances: 4,
			MigrateRatio: -1, // scale decisions only; no replica migration noise
		}, src, act)
		loop.Start()
		defer loop.Close()
	}

	// Three-phase ramp. One sequence counter spans the phases so the
	// heavy-tailed schedule never restarts mid-run.
	sched := fcSchedule(cfg.Flows)
	injected := make([]uint64, cfg.Flows)
	seq := 0
	send := func(int) {
		f := sched[seq%len(sched)]
		seq++
		injected[f]++
		drv.inject(f)
	}
	for _, ph := range []struct {
		rate int
		dur  time.Duration
	}{{cfg.WarmRate, cfg.Warm}, {cfg.PeakRate, cfg.Peak}, {cfg.CoolRate, cfg.Cool}} {
		stop := make(chan struct{})
		timer := time.AfterFunc(ph.dur, func() { close(stop) })
		pace(ph.rate, stop, send)
		timer.Stop()
	}

	if loopOn {
		// Traffic is gone, so every member reads cold; the loop must now
		// retrace its own splits back down to the single seed.
		deadline := time.Now().Add(20 * time.Second)
		for len(act.Members("fc")) > 1 {
			if time.Now().After(deadline) {
				return res, fmt.Errorf("fleet never converged back to 1 member (at %d)", len(act.Members("fc")))
			}
			time.Sleep(10 * time.Millisecond)
		}
		loop.Close()
		res.totals = loop.Totals()
	}

	if !drv.drainLive(10 * time.Second) {
		return res, fmt.Errorf("live instances did not drain")
	}
	if !cl.WaitTxns(30 * time.Second) {
		return res, fmt.Errorf("transactions never settled (%d live)", cl.LiveTxns())
	}

	res.maxMembers = drv.maxMembersSeen()
	res.drops = drv.ringDrops()
	for i := 0; i < cl.Replicas(); i++ {
		move, _, _ := cl.Replica(i).OpLatencies()
		if p := move.Quantile(0.99); p > res.p99Move {
			res.p99Move = p
		}
	}

	if loopOn && res.drops != 0 {
		return res, fmt.Errorf("loop-on run shed %d packets", res.drops)
	}
	var totalInjected, totalCounted uint64
	for f := 0; f < cfg.Flows; f++ {
		totalInjected += injected[f]
		got := drv.countFlow(f)
		totalCounted += got
		if loopOn && got != 1+injected[f] {
			return res, fmt.Errorf("flow %d: counted %d across all instances, want %d (preload 1 + injected %d)",
				f, got, 1+injected[f], injected[f])
		}
	}

	if loopOn {
		if res.totals.ScaleOuts < 1 || res.totals.ScaleIns < 1 {
			return res, fmt.Errorf("fleet never resized: %d scale-outs, %d scale-ins", res.totals.ScaleOuts, res.totals.ScaleIns)
		}
		if res.totals.Errors != 0 {
			return res, fmt.Errorf("%d actuator errors during the ramp", res.totals.Errors)
		}
		if res.p99Move > cfg.SLO {
			return res, fmt.Errorf("p99 move %v blew the %v SLO", res.p99Move, cfg.SLO)
		}
	} else {
		if res.drops == 0 && res.p99Move <= cfg.SLO {
			return res, fmt.Errorf("ablation showed no distress: 0 drops and p99 move %v inside SLO — the crowd was not a crowd", res.p99Move)
		}
		// Every injected packet was either counted or shed; the identity
		// failing would mean loss the ring never admitted to.
		if totalCounted+res.drops != uint64(cfg.Flows)+totalInjected {
			return res, fmt.Errorf("conservation identity broken: counted %d + drops %d != preload %d + injected %d",
				totalCounted, res.drops, cfg.Flows, totalInjected)
		}
	}
	return res, nil
}

// slowLogic wraps the counter middlebox with a per-packet downstream wait —
// a latency-bound service in the style of a DPI box blocking on an external
// reputation lookup. The wait is a sleep, not a spin, so instances sharing a
// host still scale aggregate throughput with instance count; that is the
// property scale-out exploits.
type slowLogic struct {
	*mbtest.CounterLogic
	cost time.Duration
}

func (l *slowLogic) Process(ctx *mbox.Context, p *packet.Packet) {
	time.Sleep(l.cost)
	l.CounterLogic.Process(ctx, p)
}

// fcRange is a contiguous flowspace slice [base, base+size).
type fcRange struct{ base, size int }

// fcDriver is the deployment half of the elastic group for this experiment:
// it spawns slow instances onto the shared cluster transport, carves
// flowspace in halves (buddy-style, so LIFO scale-in always rejoins
// cleanly), and routes injected packets through an atomically swapped
// flow->runtime table.
type fcDriver struct {
	cl  *core.Cluster
	tr  sbi.Transport
	cfg FlashCrowdConfig

	mu     sync.Mutex
	logics map[string]*slowLogic    // every instance ever spawned (audit)
	all    map[string]*mbox.Runtime // every runtime ever spawned (drop audit)
	live   map[string]*mbox.Runtime // not yet retired (drain set)
	ranges map[string]fcRange
	peak   int

	route atomic.Pointer[[]*mbox.Runtime]
}

func newFcDriver(cl *core.Cluster, tr sbi.Transport, cfg FlashCrowdConfig) *fcDriver {
	return &fcDriver{
		cl: cl, tr: tr, cfg: cfg,
		logics: map[string]*slowLogic{},
		all:    map[string]*mbox.Runtime{},
		live:   map[string]*mbox.Runtime{},
		ranges: map[string]fcRange{},
	}
}

// connect builds a slow instance and attaches it to the cluster.
func (d *fcDriver) connect(name string, preload int) (*elastic.Member, error) {
	logic := &slowLogic{CounterLogic: mbtest.NewCounterLogic(202), cost: d.cfg.PerPacket}
	if preload > 0 {
		logic.Preload(preload)
	}
	rt := mbox.New(name, logic, mbox.Options{QueueSize: d.cfg.QueueSize})
	if err := rt.Connect(d.tr, "cluster"); err != nil {
		rt.Close()
		return nil, err
	}
	if err := d.cl.WaitForMB(name, 5*time.Second); err != nil {
		rt.Close()
		return nil, err
	}
	d.mu.Lock()
	d.logics[name] = logic
	d.all[name] = rt
	d.live[name] = rt
	d.mu.Unlock()
	return &elastic.Member{Name: name, Runtime: rt}, nil
}

// seed creates the base member owning the whole flowspace.
func (d *fcDriver) seed(name string) (*elastic.Member, error) {
	m, err := d.connect(name, d.cfg.Flows)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.ranges[name] = fcRange{0, d.cfg.Flows}
	d.mu.Unlock()
	d.Route("fc", []*elastic.Member{m})
	return m, nil
}

// Spawn implements elastic.GroupDriver.
func (d *fcDriver) Spawn(group string, ordinal int) (*elastic.Member, error) {
	return d.connect(fmt.Sprintf("%s-%d", group, ordinal), 0)
}

// SplitMatch implements elastic.GroupDriver: halve the hot member's range,
// upper half to the clone.
func (d *fcDriver) SplitMatch(group string, from, to *elastic.Member) packet.FieldMatch {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.ranges[from.Name]
	lower := fcRange{r.base, r.size / 2}
	upper := fcRange{r.base + r.size/2, r.size / 2}
	d.ranges[from.Name] = lower
	d.ranges[to.Name] = upper
	return packet.FieldMatch{SrcPrefix: fcPrefix(upper)}
}

// Route implements elastic.GroupDriver: rebuild the flow->runtime table.
// Flows in no member's range (the window while a retiring member's slice is
// still being merged back) fall to the base member; any live member is a
// correct counter since the audit sums over all instances.
func (d *fcDriver) Route(group string, members []*elastic.Member) {
	d.mu.Lock()
	table := make([]*mbox.Runtime, d.cfg.Flows)
	for _, m := range members {
		if r, ok := d.ranges[m.Name]; ok {
			for f := r.base; f < r.base+r.size && f < d.cfg.Flows; f++ {
				table[f] = m.Runtime
			}
		}
	}
	for f := range table {
		if table[f] == nil {
			table[f] = members[0].Runtime
		}
	}
	if len(members) > d.peak {
		d.peak = len(members)
	}
	d.mu.Unlock()
	d.route.Store(&table)
}

// Retire implements elastic.GroupDriver: rejoin the retiree's slice with its
// buddy (the member holding the other half of the split) and close the
// runtime. The logic and runtime stay on the books for the audit.
func (d *fcDriver) Retire(group string, m *elastic.Member) {
	d.mu.Lock()
	r, ok := d.ranges[m.Name]
	if ok {
		delete(d.ranges, m.Name)
		for name, pr := range d.ranges {
			if pr.base+pr.size == r.base && pr.size == r.size {
				d.ranges[name] = fcRange{pr.base, pr.size + r.size}
				break
			}
		}
	}
	delete(d.live, m.Name)
	d.mu.Unlock()
	if m.Runtime != nil {
		m.Runtime.Close()
	}
}

func (d *fcDriver) inject(f int) {
	(*d.route.Load())[f].HandlePacket(mbtest.PacketForFlow(f))
}

func (d *fcDriver) drainLive(timeout time.Duration) bool {
	d.mu.Lock()
	rts := make([]*mbox.Runtime, 0, len(d.live))
	for _, rt := range d.live {
		rts = append(rts, rt)
	}
	d.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for _, rt := range rts {
		if !rt.Drain(time.Until(deadline)) {
			return false
		}
	}
	return true
}

func (d *fcDriver) ringDrops() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, rt := range d.all {
		m := rt.Metrics()
		total += m.DroppedPackets + m.DroppedReplays
	}
	return total
}

// countFlow sums the flow's counter across every instance ever spawned.
func (d *fcDriver) countFlow(f int) uint64 {
	key := mbtest.FlowN(f).Canonical()
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, l := range d.logics {
		total += l.Count(key)
	}
	return total
}

func (d *fcDriver) maxMembersSeen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

func (d *fcDriver) closeAll() {
	d.mu.Lock()
	rts := make([]*mbox.Runtime, 0, len(d.all))
	for _, rt := range d.all {
		rts = append(rts, rt)
	}
	d.mu.Unlock()
	for _, rt := range rts {
		rt.Close()
	}
}

// fcPrefix maps a flowspace slice onto the source prefix FlowN generates:
// flow i sources from 10.0.0.i, so an aligned power-of-two slice is exactly
// one /26.../32 prefix.
func fcPrefix(r fcRange) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(r.base)}), 32-bits.TrailingZeros(uint(r.size)))
}

// fcSchedule builds the heavy-tailed injection order: flow popularity falls
// off as 1/(1+rank), with ranks assigned by bit-reversal so every aligned
// half of the flowspace carries an equal share of the load — a prefix split
// therefore halves a member's traffic, which is what makes scale-out
// effective against a skewed crowd. The order is shuffled by a fixed-seed
// LCG so interleaving is adversarial but deterministic.
func fcSchedule(flows int) []int {
	logF := bits.TrailingZeros(uint(flows))
	var sched []int
	for f := 0; f < flows; f++ {
		rank := int(bits.Reverse8(uint8(f)) >> (8 - logF))
		for n := 0; n <= 96/(1+rank); n++ {
			sched = append(sched, f)
		}
	}
	s := uint64(0x9e3779b97f4a7c15)
	for i := len(sched) - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int(s % uint64(i+1))
		sched[i], sched[j] = sched[j], sched[i]
	}
	return sched
}

// Elastic-stat accumulation, in the TakeWireStats pattern: FlashCrowd records
// each row's decisions and sheds here so BenchmarkFlashCrowdElastic can
// report them as custom metrics.
var (
	elasticScaleOuts atomic.Uint64
	elasticScaleIns  atomic.Uint64
	elasticDrops     atomic.Uint64
)

func recordElastic(t elastic.Totals, drops uint64) {
	elasticScaleOuts.Add(t.ScaleOuts)
	elasticScaleIns.Add(t.ScaleIns)
	elasticDrops.Add(drops)
}

// TakeElasticStats returns the scale-outs, scale-ins, and ring drops
// accumulated by FlashCrowd runs since the last call, and resets them.
func TakeElasticStats() (scaleOuts, scaleIns, drops uint64) {
	return elasticScaleOuts.Swap(0), elasticScaleIns.Swap(0), elasticDrops.Swap(0)
}
