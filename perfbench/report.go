package main

import (
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/report"
	"cloudhpc/internal/store"
)

// reportLoop runs one of the report-* workloads: a single closed-loop
// client doing what one cmd/report process does per op — parse the spec
// text, run it through a Runner over an on-disk store with the memory
// tier flushed, and render the Markdown report.
func (ph *phase) reportLoop(ctx context.Context, seconds time.Duration, setupReps int) error {
	var cur *openedStore
	gen := 0
	newGen := func() error {
		if cur != nil {
			if err := ph.storeUsage(cur, 0, 0); err != nil {
				return err
			}
			if err := os.RemoveAll(cur.dir); err != nil {
				return err
			}
		}
		gen++
		dir := filepath.Join(ph.dir, "store-"+strconv.Itoa(gen))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, err := ph.openStore(dir)
		cur = s
		return err
	}
	setup := func() error {
		if err := checkGolden(ctx, ph.goldenPath()); err != nil {
			return err
		}
		cur, gen = nil, 0
		if err := newGen(); err != nil {
			return err
		}
		if ph.cfg.workload != "report-warm" {
			return nil
		}
		// report-warm measures a store that already holds its pool.
		for _, text := range ph.prep.specs {
			if err := ph.storeSpec(ctx, cur, text); err != nil {
				return err
			}
		}
		return nil
	}
	teardown := func() {
		if cur != nil {
			os.RemoveAll(cur.dir)
			cur = nil
		}
	}
	if err := ph.timedSetup(setupReps, setup, teardown); err != nil {
		return err
	}

	deadline := time.Now().Add(seconds)
	for op := 0; time.Now().Before(deadline); op++ {
		switch ph.cfg.workload {
		case "report-cold":
			if op > 0 && op%len(ph.prep.specs) == 0 {
				if err := newGen(); err != nil {
					return err
				}
			}
			text := ph.prep.specs[op%len(ph.prep.specs)]
			if delta, ok := ph.reportOp(ctx, cur, text); ok {
				ph.assertf(delta.StudyHits == 0, "report-cold op %d: %d study hit(s), want 0", op, delta.StudyHits)
			}
		case "report-warm":
			text := ph.prep.specs[op%len(ph.prep.specs)]
			held := cur.disk.Len()
			puts := cur.blobCounts().PutCalls
			if delta, ok := ph.reportOp(ctx, cur, text); ok {
				ph.assertf(delta.StudyHits == 1, "report-warm op %d: %d study hit(s), want 1", op, delta.StudyHits)
			}
			ph.assertf(cur.disk.Len() == held && cur.blobCounts().PutCalls == puts,
				"report-warm op %d wrote to the store", op)
		case "report-incremental":
			if op > 0 && op%len(ph.prep.pairs) == 0 {
				if err := newGen(); err != nil {
					return err
				}
			}
			pair := ph.prep.pairs[op%len(ph.prep.pairs)]
			if err := ph.storeSpec(ctx, cur, pair.base); err != nil {
				return err
			}
			if delta, ok := ph.reportOp(ctx, cur, pair.full); ok {
				ph.assertf(delta.StudyHits == 0 && delta.UnitMisses == int64(pair.addedUnits),
					"report-incremental op %d (adds %s): %d study hit(s) and %d unit miss(es), want 0 and %d",
					op, pair.added, delta.StudyHits, delta.UnitMisses, pair.addedUnits)
			}
		}
	}
	if err := ph.storeUsage(cur, 0, 0); err != nil {
		return err
	}
	// A cmd/report process ends here; what the heap still holds once the
	// memory tier is flushed is what the system leaks per process.
	core.FlushCachedRuns()
	ph.heapMB = retainedHeapMB()

	// Sync rounds into a fresh in-process store (no wire, no files), so every
	// workload reports sync_round_p50_ms: here it is the sync engine's
	// own cost, while serve-sync times the same round over the daemon's
	// rpc.StorePeer into its on-disk store.
	ph.rec.record(true)
	defer ph.rec.record(false)
	for r := 0; r < localSyncRounds; r++ {
		ph.rounds++
		d, err := ph.syncRound(ctx, store.Local{S: store.NewMemory()}, r)
		if err != nil {
			ph.failf("local sync round %d: %v", r, err)
			continue
		}
		ph.syncMS = append(ph.syncMS, ms(d))
	}
	return nil
}

// storeSpec runs spec into the store outside any timed window, so a later
// op finds it there.
func (ph *phase) storeSpec(ctx context.Context, s *openedStore, text string) error {
	defer core.FlushCachedRuns()
	spec, err := core.ParseSpec(text)
	if err != nil {
		return err
	}
	_, err = (&core.Runner{Store: s.rs}).Run(ctx, spec)
	return err
}

// reportOp times one spec-text-in, report-bytes-out op and checks the
// report against the spec's reference. It returns the op's store-stat
// delta, and false when the op failed.
func (ph *phase) reportOp(ctx context.Context, s *openedStore, text string) (core.StoreStats, bool) {
	ph.studies++
	core.FlushCachedRuns()
	op := ph.ops
	ph.ops++
	ph.rec.record(true)
	root := ph.rec.begin("op", -1, op)
	w := ph.openWindow(s)
	md, err := ph.reportOpTimed(ctx, s, root, text)
	d, delta := ph.closeWindow(s, w)
	ph.rec.end(root)
	ph.rec.record(false)
	if err != nil {
		ph.failf("%v", err)
		return delta, false
	}
	ph.layer.markdownBytes += int64(len(md))
	if sha256.Sum256([]byte(md)) != ph.prep.refs[text] {
		ph.failf("report for spec %q differs from its store-free reference", text)
		return delta, false
	}
	ph.latMS = append(ph.latMS, ms(d))
	return delta, true
}

func (ph *phase) reportOpTimed(ctx context.Context, s *openedStore, root int, text string) (string, error) {
	id := ph.rec.begin("spec.resolve", root, -1)
	spec, err := core.ParseSpec(text)
	if err == nil {
		_, err = spec.Resolve()
	}
	ph.rec.end(id)
	if err != nil {
		return "", err
	}
	id = ph.rec.begin("runner.run", root, -1)
	ph.rec.setAmbient(id)
	res, err := (&core.Runner{Store: s.rs}).Run(ctx, spec)
	ph.rec.setAmbient(-1)
	ph.rec.end(id)
	if err != nil {
		return "", err
	}
	id = ph.rec.begin("report.markdown", root, -1)
	md, err := report.Markdown(res)
	ph.rec.end(id)
	if err != nil {
		return "", err
	}
	return md, nil
}
