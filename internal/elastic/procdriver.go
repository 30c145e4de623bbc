package elastic

import (
	"fmt"
	"io"
	"math/bits"
	"net/netip"
	"openmb/internal/packet"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ProcessConfig configures a ProcessDriver.
type ProcessConfig struct {
	// Bin is the path to the openmb-mb binary to spawn.
	Bin string
	// Controller is the -controller value handed to every spawned instance:
	// a comma-separated list of cluster node addresses, so an instance can
	// fail over (and be redirected) across nodes.
	Controller string
	// Kind is the -kind value (monitor, ips, nat, ...).
	Kind string
	// ExtraArgs is appended verbatim to every spawn's command line.
	ExtraArgs []string
	// FlowSpace is the IPv4 source block the group partitions among its
	// members by prefix halving (default 10.0.0.0/24 — the eval harness's
	// flow numbering).
	FlowSpace netip.Prefix
	// GraceTimeout bounds a retirement's SIGTERM→SIGKILL escalation
	// (default 3s). The mb daemon drains in-flight work on SIGTERM.
	GraceTimeout time.Duration
	// Stderr receives the children's stderr (default: this process's).
	Stderr io.Writer
	// Route, when set, is invoked on every membership change to repoint
	// external traffic steering (a dataplane rule push, a config reload).
	// Nil means steering happens out of band.
	Route func(group string, members []*Member)
}

// ProcessDriver implements GroupDriver by running each group member as a
// real openmb-mb OS process: Spawn execs the binary pointed at the cluster,
// Retire terminates it gracefully (SIGTERM, then SIGKILL after the grace
// window). Members carry no Runtime handle — their state moves through the
// southbound protocol like any other remote middlebox, and the sampler
// falls back to connection counters for their load signal.
//
// The flowspace book mirrors the in-process drivers: the group's first
// split assumes the hot member owns the whole FlowSpace; each SplitMatch
// halves the hot member's current range and hands the upper half to the
// clone; Retire folds the victim's range back into the member it was carved
// from, retracing the splits LIFO.
type ProcessDriver struct {
	cfg ProcessConfig

	mu         sync.Mutex
	procs      map[string]*proc
	ranges     map[string]procRange
	carvedFrom map[string]string
}

// proc is one spawned child; exited closes when its reaper has Waited.
type proc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// procRange is a power-of-two aligned slice of the flowspace, in addresses
// offset from the FlowSpace base.
type procRange struct {
	base, size uint32
}

// NewProcessDriver creates a driver spawning cfg.Bin processes.
func NewProcessDriver(cfg ProcessConfig) *ProcessDriver {
	if !cfg.FlowSpace.IsValid() {
		cfg.FlowSpace = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 24)
	}
	if cfg.GraceTimeout <= 0 {
		cfg.GraceTimeout = 3 * time.Second
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	return &ProcessDriver{
		cfg:        cfg,
		procs:      map[string]*proc{},
		ranges:     map[string]procRange{},
		carvedFrom: map[string]string{},
	}
}

// Spawn implements GroupDriver: exec one openmb-mb process named after the
// group and ordinal, dialing the configured controller list with reconnect
// enabled (failover across cluster nodes is the point of the list).
func (d *ProcessDriver) Spawn(group string, ordinal int) (*Member, error) {
	name := fmt.Sprintf("%s-%d", group, ordinal)
	args := []string{
		"-name", name,
		"-kind", d.cfg.Kind,
		"-controller", d.cfg.Controller,
		"-reconnect",
	}
	args = append(args, d.cfg.ExtraArgs...)
	cmd := exec.Command(d.cfg.Bin, args...)
	cmd.Stderr = d.cfg.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("elastic: exec %s: %w", d.cfg.Bin, err)
	}
	// One reaper owns the Wait (no zombies, no racing waits); Retire's
	// grace window watches the exited channel instead.
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	d.mu.Lock()
	d.procs[name] = p
	d.mu.Unlock()
	return &Member{Name: name}, nil
}

// SplitMatch implements GroupDriver: halve the hot member's slice of the
// flowspace, upper half to the clone.
func (d *ProcessDriver) SplitMatch(group string, from, to *Member) packet.FieldMatch {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.ranges[from.Name]
	if !ok {
		r = procRange{0, d.flowSpaceSize()}
	}
	if r.size < 2 {
		// Unsplittable: the move matches nothing, the clone idles until
		// scale-in folds it back. Never hand out MatchAll — that would move
		// the hot member's entire flowspace to the clone.
		d.ranges[to.Name] = procRange{r.base, 0}
		d.carvedFrom[to.Name] = from.Name
		return packet.FieldMatch{SrcPrefix: d.prefixFor(procRange{r.base, 1})}
	}
	half := r.size / 2
	d.ranges[from.Name] = procRange{r.base, half}
	d.ranges[to.Name] = procRange{r.base + half, half}
	d.carvedFrom[to.Name] = from.Name
	return packet.FieldMatch{SrcPrefix: d.prefixFor(procRange{r.base + half, half})}
}

// Route implements GroupDriver: delegate to the configured steering hook.
func (d *ProcessDriver) Route(group string, members []*Member) {
	if d.cfg.Route != nil {
		d.cfg.Route(group, members)
	}
}

// Retire implements GroupDriver: fold the member's flowspace back into the
// member it was carved from, then terminate its process — SIGTERM first
// (the daemon drains), SIGKILL when the grace window lapses.
func (d *ProcessDriver) Retire(group string, m *Member) {
	d.mu.Lock()
	if r, ok := d.ranges[m.Name]; ok {
		if parent, ok := d.carvedFrom[m.Name]; ok {
			pr := d.ranges[parent]
			if pr.base+pr.size == r.base {
				d.ranges[parent] = procRange{pr.base, pr.size + r.size}
			}
		}
		delete(d.ranges, m.Name)
	}
	delete(d.carvedFrom, m.Name)
	p := d.procs[m.Name]
	delete(d.procs, m.Name)
	d.mu.Unlock()
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(d.cfg.GraceTimeout):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// Close retires every live child (used on daemon shutdown).
func (d *ProcessDriver) Close() {
	d.mu.Lock()
	names := make([]string, 0, len(d.procs))
	for name := range d.procs {
		names = append(names, name)
	}
	d.mu.Unlock()
	for _, name := range names {
		d.Retire("", &Member{Name: name})
	}
}

func (d *ProcessDriver) flowSpaceSize() uint32 {
	return 1 << (32 - d.cfg.FlowSpace.Bits())
}

// prefixFor maps a power-of-two aligned range onto a prefix inside the
// flowspace block.
func (d *ProcessDriver) prefixFor(r procRange) netip.Prefix {
	base := d.cfg.FlowSpace.Addr().As4()
	off := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	off += r.base
	addr := netip.AddrFrom4([4]byte{byte(off >> 24), byte(off >> 16), byte(off >> 8), byte(off)})
	size := r.size
	if size == 0 {
		size = 1
	}
	return netip.PrefixFrom(addr, 32-bits.TrailingZeros32(size))
}
