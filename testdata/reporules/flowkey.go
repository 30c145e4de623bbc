// A table keyed by a local alias of packet.FlowKey: NoTableKeyedByFlowKey
// must flag it.
package core

// reporules: as openmb/internal/core

import "openmb/internal/packet"

type flowKey = packet.FlowKey

var owners = map[flowKey]string{} // want
