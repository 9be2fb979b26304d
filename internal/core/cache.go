package core

import (
	"context"
	"sync"
)

// The cached-dataset layer is a three-tier pipeline driven by Runner:
//
//	memory  → the process-wide map below, keyed by canonical spec hash
//	store   → the persistent ResultStore (when one is configured):
//	          whole-study bundles under "study/<hash>", and — during
//	          compute — per-(env, app) units for incremental reuse,
//	          each named by a "unit/<sub-hash>" ref that points into the
//	          unit pack (one blob per computing study) holding it
//	compute → one context-aware study execution (Study.runSession)
//
// Every consumer that only needs a given spec's dataset (the root
// benchmark harness, cmd/figures, cmd/report, cmd/trace, the examples)
// shares one execution per spec per process; with a store, one execution
// per spec per store *across* processes, and a spec that shares (env,
// app) units with a previously stored study recomputes only the units it
// doesn't share.
//
// Keying by spec hash rather than by seed matters now that specs vary:
// two different specs at the same seed (an env subset vs the full
// matrix, a chaotic run vs a clean one) are different datasets and must
// not collide. The hash covers exactly the dataset-determining inputs —
// seed, resolved environments and scales, resolved models, iterations,
// resolved chaos plan text — and deliberately excludes the execution
// policy (Workers, Granularity), under which the dataset is invariant,
// so callers that differ only in policy share one entry. The same
// invariance is what makes a store entry trustworthy: whatever policy
// computed it, a warm load is byte-identical.
//
// The map lock is held only for entry lookup; each entry is resolved by
// exactly one leading Runner session (single-flight), so concurrent
// calls for different specs execute in parallel while duplicate
// same-spec calls coalesce onto one load-or-compute and all receive the
// shared result — or, if the leader's context is cancelled, the shared
// context error (which is then dropped from the map, never memoized).
var (
	cacheMu sync.Mutex
	cache   = map[string]*cacheEntry{}
)

// cacheEntry is one single-flight memoization slot: the leader fills res
// and err, then closes done; followers wait on done (or their own
// context) and read the shared outcome.
type cacheEntry struct {
	done chan struct{}
	res  *Results
	err  error
}

// FlushCachedRuns drops every memoized dataset from the in-process
// memory tier (the persistent store, if any, is untouched). It exists
// for benchmarks and tests that measure or exercise the store tier,
// which the memory tier would otherwise shadow; production callers never
// need it. In-flight executions are unaffected: their entries are
// dropped from the map, but callers already attached still receive the
// shared outcome.
func FlushCachedRuns() {
	cacheMu.Lock()
	cache = map[string]*cacheEntry{}
	cacheMu.Unlock()
}

// CachedRunFull returns the default-spec study dataset for seed,
// executing it on first use and memoizing it for the life of the process.
// The returned Results are shared: treat them as read-only. Shorthand for
// CachedRunSpec(DefaultSpec(seed)).
func CachedRunFull(seed uint64) (*Results, error) {
	return CachedRunSpec(DefaultSpec(seed))
}

// CachedRunSpec returns the study dataset for a spec through the
// memory → store → compute tiers, using the process-default ResultStore
// (none means memory → compute). The returned Results are shared: treat
// them as read-only. It is a thin compatibility wrapper over Runner.Run
// with a background context; callers that want cancellation, progress
// events, or an injected logger use a Runner directly. Callers that need
// non-spec Options (pauses, test clusters, budget aborts) set
// Runner.Configure (or build a Study and call Run/RunFull themselves) —
// such datasets depend on more than the spec and are never served from,
// or saved to, the study tier (their unit draws still are: units depend
// only on spec-sliced inputs). The first caller's Workers/Granularity
// policy drives the one execution; since the dataset is policy-invariant,
// later callers observe no difference.
func CachedRunSpec(spec *StudySpec) (*Results, error) {
	return (&Runner{}).Run(context.Background(), spec)
}

// cachedRunSpecIn is CachedRunSpec against an explicit store (nil
// disables the persistent tier entirely, ignoring any process default).
func cachedRunSpecIn(rs *ResultStore, spec *StudySpec) (*Results, error) {
	return (&Runner{Store: rs, disableStore: rs == nil}).Run(context.Background(), spec)
}
