// Package examples smoke-tests every runnable example, so example rot —
// an API change a demo was not updated for, a hang in a teardown path —
// becomes a test failure instead of a stale README artifact. Each example
// is vetted, then built and run to completion with a deadline. Each example
// directory is a module of its own (openmb-examples/<dir>, replace openmb =>
// ../..), outside openmb, so it uses the public API alone: the compiler
// refuses an openmb/internal import there. `go test ./...` does not reach
// those modules, so this test, in the root module, runs them.
package examples

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

type exampleRun struct {
	dir  string
	want string // a line fragment the successful run must print
}

// exampleRuns enumerates the smoke matrix.
var exampleRuns = []exampleRun{
	{dir: "quickstart", want: "conservation:"},
	{dir: "cluster", want: "after cross-node move:"},
	{dir: "failover", want: "failover complete:"},
	{dir: "livemigration", want: "migration done:"},
	{dir: "scaling", want: "conservation held: true"},
	{dir: "custommb", want: "conservation: ctr1 0 flows, ctr2 10 flows; 100 per-flow counts and 100 reported packets (sent 100)"},
}

// TestExamplesRunToCompletion vets, builds and runs each example via the go
// toolchain (shared build cache: openmb compiles once) under a deadline, in
// the example's own module with GOPROXY=off, as it requires nothing but this
// tree. A wedged example — deadlock in Close, a lost packet breaking a
// conservation print — fails here rather than on a user's first try.
func TestExamplesRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("examples shell out to the go toolchain; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(e.Name() + "/go.mod"); err != nil {
			t.Errorf("examples/%s has no go.mod: an example in the root module could import openmb/internal", e.Name())
		}
		if !slices.ContainsFunc(exampleRuns, func(r exampleRun) bool { return r.dir == e.Name() }) {
			t.Errorf("examples/%s is not in exampleRuns", e.Name())
		}
	}
	for _, tc := range exampleRuns {
		t.Run(tc.dir, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			var out bytes.Buffer
			for _, args := range [][]string{{"vet", "."}, {"run", "."}} {
				out.Reset()
				cmd := exec.CommandContext(ctx, goBin, args...)
				cmd.Dir = tc.dir
				cmd.Env = append(os.Environ(), "GOPROXY=off")
				cmd.Stdout = &out
				cmd.Stderr = &out
				err := cmd.Run()
				if ctx.Err() != nil {
					t.Fatalf("go %s in %s did not finish before the deadline\n%s", args[0], tc.dir, out.String())
				}
				if err != nil {
					t.Fatalf("go %s in %s failed: %v\n%s", args[0], tc.dir, err, out.String())
				}
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("example %s output missing %q:\n%s", tc.dir, tc.want, out.String())
			}
		})
	}
}
