// A library package reading an OPENMB_* variable through os.LookupEnv:
// NoEnvironmentInLibrary must flag it.
package nat

// reporules: as openmb/internal/mbox/nat

import "os"

func queueSize() string {
	v, _ := os.LookupEnv("OPENMB_QUEUE_SIZE") // want
	return v
}
