// A config struct with a field the options list does not name:
// OptionsOnlyShrink must flag it.
package core

// reporules: as openmb/internal/core

import "time"

type Options struct {
	QuietPeriod time.Duration
	RetryBudget int // want
}
