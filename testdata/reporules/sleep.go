// A sleep-poll in a function not on sleepAllowlist, and one sleep more than
// the list allows a listed function: SleepsOnlyWhereListed must flag both.
package core

// reporules: as openmb/internal/core

import "time"

func waitForAck(acked func() bool) {
	for !acked() {
		time.Sleep(time.Millisecond) // want
	}
}

type Controller struct{}

// redialLoop is on sleepAllowlist with one sleep; a second one is flagged.
func (c *Controller) redialLoop() {
	time.Sleep(time.Second)
	time.Sleep(time.Second) // want
}
