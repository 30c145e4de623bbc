// A daemon flag the flags list does not name, in both of package flag's
// forms: FlagsOnlyShrink must flag both, and not the listed one.
package main

// reporules: as openmb/cmd/openmb-mb

import "flag"

func main() {
	flag.String("controller", "127.0.0.1:9753", "controller address")
	flag.Int("retry-budget", 0, "moves retried before giving up") // want
	var verbose bool
	flag.BoolVar(&verbose, "verbose", false, "log every packet") // want
	flag.Parse()
}
