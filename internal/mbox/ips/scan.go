package ips

import (
	"encoding/json"
	"net/netip"
)

// scanTracker is the IPS's shared supporting state: per-source-host records
// of distinct destination ports and hosts, used to detect scanning. It is
// shared because it spans flows — precisely the state Split/Merge's per-flow
// abstractions cannot move or clone (§2.1), and which OpenMB transfers via
// getSupportShared/putSupportShared with MB-implemented merge.
type scanTracker struct {
	// Sources maps source-IP string to its record. String keys keep JSON
	// serialization simple and deterministic.
	Sources map[string]*scanRecord `json:"sources"`
	// PortThreshold triggers a scan alert at this many distinct ports.
	PortThreshold int `json:"portThreshold"`
}

// scanRecord tracks one source host.
type scanRecord struct {
	// Ports and Hosts are sets, bounded to keep state small.
	Ports map[uint16]bool `json:"ports"`
	Hosts map[string]bool `json:"hosts"`
	// Alerted marks that a scan alert has fired for this source, so the
	// alert fires once (and is not duplicated after a clone).
	Alerted bool `json:"alerted"`
}

const scanSetCap = 256

func newScanTracker(threshold int) *scanTracker {
	return &scanTracker{Sources: map[string]*scanRecord{}, PortThreshold: threshold}
}

// observe records a flow-opening packet. It returns true when the source
// crosses the scan threshold for the first time.
func (t *scanTracker) observe(src netip.Addr, dst netip.Addr, dstPort uint16) bool {
	key := src.String()
	rec, ok := t.Sources[key]
	if !ok {
		rec = &scanRecord{Ports: map[uint16]bool{}, Hosts: map[string]bool{}}
		t.Sources[key] = rec
	}
	if len(rec.Ports) < scanSetCap {
		rec.Ports[dstPort] = true
	}
	if len(rec.Hosts) < scanSetCap {
		rec.Hosts[dst.String()] = true
	}
	if !rec.Alerted && len(rec.Ports) >= t.PortThreshold {
		rec.Alerted = true
		return true
	}
	return false
}

// marshal serializes the tracker deterministically.
func (t *scanTracker) marshal() ([]byte, error) {
	return json.Marshal(t)
}

// mergeFrom folds another tracker's records into this one: sets are
// unioned, alert flags are OR-ed. This is the MB-implemented merge logic
// invoked when put is called on an instance that already holds shared state
// (§4.1.2).
func (t *scanTracker) mergeFrom(blob []byte) error {
	var other scanTracker
	if err := json.Unmarshal(blob, &other); err != nil {
		return err
	}
	if other.PortThreshold != 0 && (t.PortThreshold == 0 || other.PortThreshold < t.PortThreshold) {
		t.PortThreshold = other.PortThreshold
	}
	for src, rec := range other.Sources {
		mine, ok := t.Sources[src]
		if !ok {
			t.Sources[src] = rec
			continue
		}
		for p := range rec.Ports {
			if len(mine.Ports) < scanSetCap {
				mine.Ports[p] = true
			}
		}
		for h := range rec.Hosts {
			if len(mine.Hosts) < scanSetCap {
				mine.Hosts[h] = true
			}
		}
		mine.Alerted = mine.Alerted || rec.Alerted
	}
	return nil
}
