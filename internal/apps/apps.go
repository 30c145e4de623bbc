// Package apps implements the paper's control applications (§6). Each
// application orchestrates middlebox state operations (through the OpenMB
// controller's northbound API) in tandem with network forwarding changes
// (through a caller-supplied routing update, typically a closure over the
// SDN controller) — requirement R4: state migration must be coordinated with
// changes to network forwarding state.
//
// The applications are deliberately thin: the northbound API absorbs the
// sequencing of gets, puts, events, and deletes, so each scenario reduces to
// a handful of calls in the right order — the simplicity argument of §5.
package apps

import (
	"fmt"
	"sync"

	"openmb/internal/core"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// Env bundles what every control application needs: the middlebox
// controller. Routing updates are passed per call so applications stay
// topology-agnostic.
type Env struct {
	MB *core.Controller
}

// MigrateRE performs the live-migration scenario of §6.1 (Figure 6(a)):
// half the application VMs move to a new data center, and a new RE decoder
// must take over their traffic with a warm, synchronized cache.
//
// Steps, exactly as the paper lists them:
//  1. (the new decoder instance is launched by the operator/orchestrator
//     and has registered with the controller under newDec)
//     duplicate the original decoder's configuration;
//  2. clone the original decoder's cache (shared supporting state);
//  3. add a second cache at the encoder — internally the encoder clones
//     its original cache;
//  4. update network routing (the updateRouting callback);
//  5. tell the encoder to use the second cache for traffic to the migrated
//     prefix, and the first for traffic staying behind.
func (e *Env) MigrateRE(origDec, newDec, encoder string, cacheFlows []string, updateRouting func() error) error {
	// Step 1: values = readConfig(OrigDec,"*"); writeConfig(NewDec,"*",values)
	if err := e.MB.CloneConfig(origDec, newDec); err != nil {
		return fmt.Errorf("apps: migrate step 1 (clone config): %w", err)
	}
	// Step 2: cloneSupport(OrigDec, NewDec)
	if err := e.MB.CloneSupport(origDec, newDec); err != nil {
		return fmt.Errorf("apps: migrate step 2 (clone cache): %w", err)
	}
	// Step 3: writeConfig(Enc, "NumCaches", [2])
	if err := e.MB.WriteConfig(encoder, "NumCaches", []string{fmt.Sprint(len(cacheFlows))}); err != nil {
		return fmt.Errorf("apps: migrate step 3 (NumCaches): %w", err)
	}
	// Step 4: update the network routing.
	if updateRouting != nil {
		if err := updateRouting(); err != nil {
			return fmt.Errorf("apps: migrate step 4 (routing): %w", err)
		}
	}
	// Step 5: writeConfig(Enc, "CacheFlows", [...]).
	if err := e.MB.WriteConfig(encoder, "CacheFlows", cacheFlows); err != nil {
		return fmt.Errorf("apps: migrate step 5 (CacheFlows): %w", err)
	}
	return nil
}

// ScaleUp performs the scale-up half of §6.2 (Figure 6(b)):
//  1. duplicate the configuration from the existing instance;
//  2. query how much per-flow state exists for the subnets being
//     rebalanced (informing the rebalancing decision);
//  3. move the selected per-flow state;
//  4. route the moved flows to the new instance.
//
// It returns the stats reply from step 2.
func (e *Env) ScaleUp(existing, added string, moveMatch packet.FieldMatch, updateRouting func() error) (sbi.StatsReply, error) {
	if err := e.MB.CloneConfig(existing, added); err != nil {
		return sbi.StatsReply{}, fmt.Errorf("apps: scale-up step 1 (clone config): %w", err)
	}
	stats, err := e.MB.Stats(existing, moveMatch)
	if err != nil {
		return stats, fmt.Errorf("apps: scale-up step 2 (stats): %w", err)
	}
	if err := e.MB.MoveInternal(existing, added, moveMatch); err != nil {
		return stats, fmt.Errorf("apps: scale-up step 3 (move): %w", err)
	}
	if updateRouting != nil {
		if err := updateRouting(); err != nil {
			return stats, fmt.Errorf("apps: scale-up step 4 (routing): %w", err)
		}
	}
	return stats, nil
}

// ScaleDown performs the scale-down half of §6.2:
//  1. transfer the per-flow state for all flows;
//  2. merge the shared state;
//  3. route flows to the remaining instance;
//  4. (terminating the unneeded instance is the orchestrator's job.)
func (e *Env) ScaleDown(deprecated, remaining string, updateRouting func() error) error {
	// Step 1: moveInternal(deprecated, remaining, [])
	if err := e.MB.MoveInternal(deprecated, remaining, packet.MatchAll); err != nil {
		return fmt.Errorf("apps: scale-down step 1 (move): %w", err)
	}
	// Step 2: mergeInternal(deprecated, remaining)
	if err := e.MB.MergeInternal(deprecated, remaining); err != nil {
		return fmt.Errorf("apps: scale-down step 2 (merge): %w", err)
	}
	// Step 3: routing.
	if updateRouting != nil {
		if err := updateRouting(); err != nil {
			return fmt.Errorf("apps: scale-down step 3 (routing): %w", err)
		}
	}
	return nil
}

// Failover recovers from a failing middlebox (§2, failure recovery): move
// the minimal critical state to a replacement and re-route. The failing
// instance must still be reachable over the southbound connection (the
// "minimal live snapshot" option — cheaper than running a full parallel
// replica and more complete than periodic snapshots).
func (e *Env) Failover(failing, replacement string, updateRouting func() error) error {
	if err := e.MB.CloneConfig(failing, replacement); err != nil {
		return fmt.Errorf("apps: failover config: %w", err)
	}
	if err := e.MB.MoveInternal(failing, replacement, packet.MatchAll); err != nil {
		return fmt.Errorf("apps: failover move: %w", err)
	}
	if err := e.MB.CloneSupport(failing, replacement); err != nil {
		return fmt.Errorf("apps: failover shared state: %w", err)
	}
	if updateRouting != nil {
		if err := updateRouting(); err != nil {
			return fmt.Errorf("apps: failover routing: %w", err)
		}
	}
	return nil
}

// MappingShadow maintains a live shadow of a NAT's critical state (its
// address/port mappings) from introspection events — R6's payoff: the
// controller knows when critical state was created and what it was, without
// polling. Applications use it to monitor mapping churn and to audit
// failover completeness.
type MappingShadow struct {
	mu       sync.Mutex
	mappings map[string]string // flow key -> external endpoint
	created  uint64
	expired  uint64
}

// NewMappingShadow subscribes to mapping events from the named NAT and
// enables their generation.
func NewMappingShadow(ctrl *core.Controller, natName string) (*MappingShadow, error) {
	s := &MappingShadow{mappings: map[string]string{}}
	ctrl.SubscribeIntrospection(func(mb string, ev *sbi.Event) {
		if mb != natName {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		switch ev.Code {
		case "nat.mapping.created":
			s.mappings[ev.Key.String()] = ev.Values["external"]
			s.created++
		case "nat.mapping.expired":
			delete(s.mappings, ev.Key.String())
			s.expired++
		}
	})
	if err := ctrl.SetEventFilter(natName, "nat.mapping.", packet.MatchAll, true); err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of live shadowed mappings.
func (s *MappingShadow) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mappings)
}

// Counts returns the created/expired event totals.
func (s *MappingShadow) Counts() (created, expired uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.created, s.expired
}
