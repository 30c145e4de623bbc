// A middlebox keeping a per-flow map beside its mbox.Table and touching the
// runtime itself: NoMiddleboxKeepsItsOwnPerFlowTable must flag both.
package nat

// reporules: as openmb/internal/mbox/nat

import (
	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/state"
)

type shim struct{ hits map[packet.FlowID]int } // want

func (s *shim) hit(ctx *mbox.Context, id packet.FlowID) {
	s.hits[id]++
	ctx.Touch(state.Supporting, id) // want
}
