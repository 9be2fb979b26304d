package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestWrongReferenceFails is the benchmark's self-test: fed a wrong
// reference for every spec, a run must count every study op as failed
// and report itself incorrect; fed the right ones, it must not.
func TestWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study system end to end")
	}
	for _, workload := range []string{"report-warm", "serve-sync"} {
		for _, wrong := range []bool{false, true} {
			cfg := config{
				workload:  workload,
				seed:      7,
				seconds:   500 * time.Millisecond,
				root:      "..",
				work:      filepath.Join(t.TempDir(), "run"),
				wrongRefs: wrong,
			}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (wrong refs %v): %v", workload, wrong, err)
			}
			if res.Attempted == 0 {
				t.Fatalf("%s (wrong refs %v): no ops attempted", workload, wrong)
			}
			switch {
			case wrong && (res.Correct || res.Failed == 0):
				t.Errorf("%s with wrong references: correct=%v, %d of %d ops failed; want an incorrect run with failures",
					workload, res.Correct, res.Failed, res.Attempted)
			case !wrong && (!res.Correct || res.Failed != 0):
				t.Errorf("%s with right references: correct=%v, %d of %d ops failed; want a correct run",
					workload, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10..40 and 90..100)", got)
	}
}
