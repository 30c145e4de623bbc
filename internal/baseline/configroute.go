package baseline

import (
	"fmt"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/trace"
)

// ConfigRouteMigrate performs the "controlling MB configuration and routing"
// approach (§2.1): clone the configuration to the new instance and leave all
// internal state behind. The caller re-routes new flows; existing flows keep
// using the deprecated instance until they finish. No state is moved —
// that is the approach's defining limitation.
func ConfigRouteMigrate(src, dst mbox.Logic) error {
	entries, err := src.Config().Export("")
	if err != nil {
		return fmt.Errorf("baseline: config+route export: %w", err)
	}
	if err := dst.Config().Import(entries); err != nil {
		return fmt.Errorf("baseline: config+route import: %w", err)
	}
	return nil
}

// DrainTime computes how long a deprecated middlebox is "held up" by
// in-progress flows under the config+routing approach: the time from the
// re-route instant until the last active flow completes. §8.1.2 observes
// the deprecated MB was held up for over 1500 s because ~9% of flows in the
// university data-center trace outlive 1500 s (Figure 8).
func DrainTime(flows []trace.FlowInfo, rerouteAt time.Duration) time.Duration {
	reroute := int64(rerouteAt)
	var lastEnd int64
	for _, f := range flows {
		if f.Start <= reroute && f.End > reroute && f.End > lastEnd {
			lastEnd = f.End
		}
	}
	if lastEnd == 0 {
		return 0
	}
	return time.Duration(lastEnd - reroute)
}
