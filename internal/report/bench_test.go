package report

import (
	"context"
	"testing"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// storeDecodedResults returns the full-matrix default study as a warm
// `cmd/report -store` run sees it: computed into an in-memory result
// store, then decoded back from it.
func storeDecodedResults(tb testing.TB) *core.Results {
	tb.Helper()
	rs := core.NewResultStore(store.NewMemory())
	rs.Logf = nil
	spec := core.DefaultSpec(core.DefaultSeed)
	core.FlushCachedRuns()
	defer core.FlushCachedRuns()
	if _, err := (&core.Runner{Store: rs}).Run(context.Background(), spec); err != nil {
		tb.Fatal(err)
	}
	rspec, err := spec.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	res, ok := rs.LoadStudy(rspec)
	if !ok {
		tb.Fatal("study not found in the result store after a run")
	}
	return res
}

// BenchmarkMarkdown times rendering the full-matrix report from a
// store-decoded dataset — the render step of a warm `cmd/report` run.
func BenchmarkMarkdown(b *testing.B) {
	res := storeDecodedResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Markdown(res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarkdownAllocs guards the render against per-record rebuilds of
// the environment matrix or per-category rescans of the trace, either
// of which puts it back above 100k allocations.
func TestMarkdownAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	res := storeDecodedResults(t)
	const ceiling = 10000
	got := testing.AllocsPerRun(3, func() {
		if _, err := Markdown(res); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Markdown allocates %.0f/op on the full matrix, want <= %d", got, ceiling)
	}
}
