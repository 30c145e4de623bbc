// A library package tuning the collector through a renamed import:
// NoGCTuningInLibrary must flag it.
package mbox

// reporules: as openmb/internal/mbox

import dbg "runtime/debug"

func init() { dbg.SetGCPercent(400) } // want
