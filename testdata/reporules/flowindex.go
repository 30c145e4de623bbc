// A FlowIndex beside a middlebox's flat table, and a per-get sort of its
// keys: OneKeyStructureUnderPerFlowState must flag both.
package ips

// reporules: as openmb/internal/mbox/ips

import (
	"openmb/internal/packet"
	"openmb/internal/state"
)

var index = state.NewFlowIndex() // want

func sortedKeys(ids []packet.FlowID) []packet.FlowID {
	packet.SortIDs(ids) // want
	return ids
}
