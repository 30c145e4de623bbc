// An exported name nothing calls: EveryExportedNameHasACaller must flag it.
package state

// reporules: as openmb/internal/state

// Unused has no caller in either module.
func Unused() int { return 0 } // want
