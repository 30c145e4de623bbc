// Package examples smoke-tests every runnable example, so example rot —
// an API change a demo was not updated for, a hang in a teardown path —
// becomes a test failure instead of a stale README artifact. Each example
// is built and run to completion with a deadline.
package examples

import (
	"bytes"
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// exampleRuns enumerates the smoke matrix.
var exampleRuns = []struct {
	dir  string
	want string // a line fragment the successful run must print
}{
	{dir: "quickstart", want: "conservation:"},
	{dir: "cluster", want: "after cross-node move:"},
	{dir: "failover", want: "failover complete:"},
	{dir: "livemigration", want: "migration done:"},
	{dir: "scaling", want: "conservation held: true"},
}

// TestExamplesRunToCompletion builds and runs each example via the go
// toolchain (shared build cache: the module compiles once) under a
// deadline. A wedged example — deadlock in Close, a lost packet breaking a
// conservation print — fails here rather than on a user's first try.
func TestExamplesRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("examples shell out to the go toolchain; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	for _, tc := range exampleRuns {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, goBin, "run", "./"+tc.dir)
			cmd.Dir = "." // the examples directory; module paths resolve from go.mod above
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("example %s did not finish before the deadline\n%s", tc.dir, out.String())
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", tc.dir, err, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("example %s output missing %q:\n%s", tc.dir, tc.want, out.String())
			}
		})
	}
}
