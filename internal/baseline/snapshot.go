// Package baseline implements the three state-of-the-art alternatives the
// paper compares OpenMB against (§2.1, §8.1.2):
//
//   - VM snapshots: clone a middlebox's state in its entirety, unneeded
//     state included (snapshot.go);
//   - controlling configuration and routing only: clone configuration, route
//     new flows to the new instance, and let existing flows drain
//     (configroute.go);
//   - Split/Merge: move per-flow state with traffic halted and buffered for
//     atomicity (splitmerge.go).
//
// Each baseline runs over the same middlebox implementations and network
// substrate as OpenMB, so the comparisons in the evaluation harness measure
// the approach, not the plumbing.
package baseline

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/state"
)

// Image is a whole-middlebox state snapshot: everything a VM snapshot would
// capture. Unlike OpenMB's fine-grained chunks, an Image is indivisible —
// restoring it installs all state, needed or not, which is exactly the
// failure mode §8.1.2 quantifies (unneeded state causing incorrect log
// entries and wasted memory).
type Image struct {
	Kind           string
	Config         []state.Entry
	SupportPerflow []state.Chunk
	ReportPerflow  []state.Chunk
	SupportShared  []byte
	ReportShared   []byte
}

// Snapshot captures the full state of a middlebox. It bypasses the OpenMB
// controller entirely, reading state through the logic interface the way a
// hypervisor would freeze memory.
func Snapshot(logic mbox.Logic) (*Image, error) {
	img := &Image{Kind: logic.Kind()}
	entries, err := logic.Config().Export("")
	if err != nil {
		return nil, fmt.Errorf("baseline: snapshot config: %w", err)
	}
	img.Config = entries
	collect := func(class state.Class) ([]state.Chunk, error) {
		var chunks []state.Chunk
		err := mbox.ExportPerflow(logic, class, packet.MatchAll, func(id packet.FlowID, blob []byte) error {
			// The image keeps the blob; the export reuses its buffer.
			chunks = append(chunks, state.Chunk{Key: id.Key(), Blob: bytes.Clone(blob)})
			return nil
		})
		return chunks, err
	}
	if img.SupportPerflow, err = collect(state.Supporting); err != nil {
		return nil, fmt.Errorf("baseline: snapshot per-flow supporting: %w", err)
	}
	if img.ReportPerflow, err = collect(state.Reporting); err != nil {
		return nil, fmt.Errorf("baseline: snapshot per-flow reporting: %w", err)
	}
	if blob, err := logic.GetShared(state.Supporting, func() {}); err == nil {
		img.SupportShared = blob
	}
	if blob, err := logic.GetShared(state.Reporting, func() {}); err == nil {
		img.ReportShared = blob
	}
	return img, nil
}

// Restore installs an image into a fresh middlebox of the same kind.
func Restore(logic mbox.Logic, img *Image) error {
	if logic.Kind() != img.Kind {
		return fmt.Errorf("baseline: restore %q image into %q middlebox", img.Kind, logic.Kind())
	}
	if err := logic.Config().Import(img.Config); err != nil {
		return fmt.Errorf("baseline: restore config: %w", err)
	}
	for _, c := range img.SupportPerflow {
		if err := mbox.PutPerflow(logic, state.Supporting, c); err != nil {
			return fmt.Errorf("baseline: restore per-flow supporting: %w", err)
		}
	}
	for _, c := range img.ReportPerflow {
		if err := mbox.PutPerflow(logic, state.Reporting, c); err != nil {
			return fmt.Errorf("baseline: restore per-flow reporting: %w", err)
		}
	}
	if len(img.SupportShared) > 0 {
		if err := logic.PutShared(state.Supporting, img.SupportShared); err != nil {
			return fmt.Errorf("baseline: restore shared supporting: %w", err)
		}
	}
	if len(img.ReportShared) > 0 {
		if err := logic.PutShared(state.Reporting, img.ReportShared); err != nil {
			return fmt.Errorf("baseline: restore shared reporting: %w", err)
		}
	}
	return nil
}

// Size returns the serialized byte size of the image — the metric behind
// the BASE/FULL/HTTP/OTHER comparison of §8.1.2.
func (img *Image) Size() (int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// PerflowBytes sums the per-flow blob sizes matching m (both classes);
// with MatchAll it measures the state SDMBN would move, for the
// "8.1 MB moved vs 22 MB snapshot delta" style comparison.
func (img *Image) PerflowBytes(m packet.FieldMatch) int {
	total := 0
	for _, c := range img.SupportPerflow {
		if m.MatchEither(c.Key) {
			total += len(c.Blob)
		}
	}
	for _, c := range img.ReportPerflow {
		if m.MatchEither(c.Key) {
			total += len(c.Blob)
		}
	}
	return total
}
