// Command openmb-bench regenerates the tables and figures of the paper's
// evaluation (§8) and prints them as text tables: it ranges over
// eval.Ledger, the one list of experiments. Run with -exp all (the default)
// or a comma-separated subset of ledger ids (docs/REPRODUCTION.md lists
// them; an unknown id is an error that does too).
//
// -scale full uses parameters close to the paper's sweeps; the default
// "quick" scale finishes in well under a minute. Every experiment runs on
// the library defaults (binary codec, 32 chunks per frame, automatic router
// sharding).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"openmb/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run (comma-separated ledger ids, or 'all')")
	scale := flag.String("scale", "quick", "quick|full parameter scale")
	flag.Parse()

	var ids []string
	byID := map[string]eval.Entry{}
	for _, e := range eval.Ledger {
		ids = append(ids, e.ID)
		byID[e.ID] = e
	}
	selected := ids
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
		for _, id := range selected {
			if _, ok := byID[id]; !ok {
				log.Fatalf("unknown experiment %q; the ledger ids are: %s", id, strings.Join(ids, " "))
			}
		}
	}
	if *scale != "quick" && *scale != "full" {
		log.Fatalf("unknown scale %q; want quick or full", *scale)
	}

	for _, id := range selected {
		e := byID[id]
		start := time.Now()
		tbl, err := e.Run(*scale == "full")
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("%s\n%s\n", e.Artefact, tbl.Render())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
