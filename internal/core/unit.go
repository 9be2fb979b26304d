package core

import (
	"fmt"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/network"
	"cloudhpc/internal/sim"
)

// This file implements the fine-grained half of the work-partitioning
// plan. A study decomposes hierarchically:
//
//	study
//	└── environment shard        (lifecycle: provision, schedule, chaos, audit)
//	    └── (env, app) unit      (pure model + hookup draws)
//
// The only per-run randomness an environment consumes outside its
// lifecycle streams is the model's figure-of-merit jitter and the hookup
// jitter, and those draws come from a stream named after the (env, app)
// pair — so they are a pure function of (seed, env, app, scale order) and
// can be computed anywhere, in any order, on any worker. At
// GranularityEnvApp the executor dispatches them as independent units
// before the environment assembly replays the lifecycle; at
// GranularityEnv the shard draws them inline from the same streams at
// consumption time. Both paths touch each named stream in the identical
// order, which is the whole byte-identity argument across granularities.
//
// The merge is hierarchical and deterministic at every level: units feed
// their environment's assembly in canonical application order, and
// assemblies merge into the study in canonical matrix order (study.go).

// drawMode selects where a shard's per-run model/hookup draws come from.
type drawMode int

const (
	// drawInline draws from the per-application streams
	// "core/run/<env>/<app>" at consumption time (GranularityEnv).
	drawInline drawMode = iota
	// drawPlanned consumes draws precomputed by (env, app) units from the
	// same per-application streams (GranularityEnvApp).
	drawPlanned
	// drawLegacy draws from the single shared per-environment stream
	// "core/run/<env>" the pre-spec executor used (Options.LegacyRunStreams).
	drawLegacy
)

// runStreamName names the model/hookup noise stream of one (env, app)
// pair. The legacy executor used legacyRunStreamName for every app of an
// environment; the per-app extension is what makes (env, app) units
// independently computable.
func runStreamName(envKey, app string) string { return "core/run/" + envKey + "/" + app }

// legacyRunStreamName names the pre-spec shared per-environment stream.
func legacyRunStreamName(envKey string) string { return "core/run/" + envKey }

// plannedRun is one precomputed (env, app, scale, iter) outcome: the model
// result and the hookup draw, tagged with its coordinates so consumption
// can assert it is replaying the schedule the unit computed.
type plannedRun struct {
	nodes  int
	iter   int
	result apps.Result
	hookup time.Duration
}

// unitPlan is the output of one (env, app) unit: that application's
// planned runs across every scale of the environment, in consumption
// order, plus the assembly-side cursor.
type unitPlan struct {
	runs []plannedRun
	next int
}

// take consumes the next planned run, asserting its coordinates. Taking
// the last run releases the plan's backing slice: the assembly consumes
// units strictly in order, so an exhausted plan's decoded records are
// dead weight — dropping them as the merge streams through keeps the
// study's peak footprint at one unit, not every shard's full output.
func (u *unitPlan) take(app string, nodes, iter int) (plannedRun, error) {
	if u.next >= len(u.runs) {
		return plannedRun{}, fmt.Errorf("core: unit %s exhausted at nodes=%d iter=%d", app, nodes, iter)
	}
	pr := u.runs[u.next]
	if pr.nodes != nodes || pr.iter != iter {
		return plannedRun{}, fmt.Errorf("core: unit %s out of step: planned (nodes=%d iter=%d), consuming (nodes=%d iter=%d)",
			app, pr.nodes, pr.iter, nodes, iter)
	}
	u.next++
	if u.next == len(u.runs) {
		u.runs, u.next = nil, 0
	}
	return pr, nil
}

// itersFor is the per-run iteration count: the spec's repeat count, except
// the one study run the paper performed only once (the 8.82-minute-hookup
// LAMMPS at the 256-node AKS size). Units and assembly share it so the
// planned schedule and its consumption always agree.
func itersFor(spec apps.EnvSpec, nodes int, app string, base int) int {
	if spec.Key == "azure-aks-cpu" && nodes == 256 && app == "lammps" {
		return 1
	}
	return base
}

// unitRuns is the number of runs one (env, app) unit plans: every
// iteration of every scale the environment can deploy.
func unitRuns(spec apps.EnvSpec, app string, iterations int) int {
	maxNodes := apps.MaxNodesFor(spec)
	total := 0
	for _, nodes := range spec.Scales {
		if nodes <= maxNodes {
			total += itersFor(spec, nodes, app, iterations)
		}
	}
	return total
}

// planUnit computes the planned runs of one (env, app) unit. It draws
// from the stream runStreamName(spec.Key, m.Name()) of a private
// simulation seeded with the study's root seed, visiting the
// environment's scales in order — exactly the order the environment
// assembly (or an inline-drawing shard) consumes them, so the draw
// sequence on that named stream is identical in every mode.
func planUnit(seed uint64, spec apps.EnvSpec, m apps.Model, iterations int, hookup *network.HookupModel) *unitPlan {
	sm := sim.New(seed)
	rng := sm.Stream(runStreamName(spec.Key, m.Name()))
	u := &unitPlan{runs: make([]plannedRun, 0, unitRuns(spec, m.Name(), iterations))}
	maxNodes := apps.MaxNodesFor(spec)
	for _, nodes := range spec.Scales {
		if nodes > maxNodes {
			continue // the assembly skips this scale; no draws happen
		}
		iters := itersFor(spec, nodes, m.Name(), iterations)
		for it := 0; it < iters; it++ {
			r := m.Run(spec.Env, nodes, rng)
			hk := hookup.Hookup(spec.Provider, spec.Acc, spec.Kubernetes, nodes, rng)
			u.runs = append(u.runs, plannedRun{nodes: nodes, iter: it, result: r, hookup: hk})
		}
	}
	return u
}

// PlanUnitForBench exposes the (env, app) unit precompute to the root
// benchmark harness, which uses it to measure the fraction of the study
// the env-app granularity moves off the environments' critical path. It
// returns the number of planned runs.
func PlanUnitForBench(seed uint64, spec apps.EnvSpec, m apps.Model, iterations int, hookup *network.HookupModel) int {
	return len(planUnit(seed, spec, m, iterations, hookup).runs)
}

// unitSource says which tier served a unit — the observation feed for
// resolveUnit's closing event.
type unitSource int

const (
	unitFilled    unitSource = iota // already planned (dispatched earlier)
	unitFromStore                   // decoded from the persistent store
	unitComputed                    // computed on the calling worker
)

// ensureUnit makes one (env, app) unit's planned draws available, in
// tier order: already filled (no-op), decoded from a unit pack in the
// persistent result store (a unit whose sub-hash was stored by any
// earlier study — the incremental-execution path), or computed on the
// calling worker and queued for this study's pack. It reports the
// serving tier. Units of the same shard may run concurrently: each owns
// a private simulation, and each writes only its own planned-run slot.
func (sh *shard) ensureUnit(appIdx int) unitSource {
	if sh.planned[appIdx] != nil {
		return unitFilled
	}
	m := sh.models[appIdx]
	if sh.units != nil {
		if u, ok := sh.units.load(sh.unitKeys[appIdx], sh.spec, m.Name(), sh.iterations); ok {
			sh.planned[appIdx] = u
			return unitFromStore
		}
	}
	sh.computes.Add(1)
	u := planUnit(sh.sim.Seed(), sh.spec, m, sh.iterations, sh.hookup)
	if sh.units != nil {
		sh.units.add(dataset.UnitMeta{
			Version: storeSchemaVersion, Key: sh.unitKeys[appIdx], Seed: sh.sim.Seed(),
			Env: sh.spec.Key, App: m.Name(), Iterations: sh.iterations,
		}, u)
	}
	sh.planned[appIdx] = u
	return unitComputed
}

// resolveUnit is ensureUnit bracketed by its observation events: one
// EventUnitStarted, then EventUnitCached (filled or store-decoded) or
// EventUnitFinished (computed locally). Emission is pure observation;
// with no session attached this is exactly ensureUnit.
func (sh *shard) resolveUnit(appIdx int) {
	m := sh.models[appIdx]
	sh.sess.emit(Event{Kind: EventUnitStarted, Env: sh.spec.Key, App: m.Name()})
	kind := EventUnitFinished
	if sh.ensureUnit(appIdx) != unitComputed {
		kind = EventUnitCached
	}
	sh.sess.emit(Event{Kind: kind, Env: sh.spec.Key, App: m.Name()})
}

// ensureUnits fills every unit slot of a planned-mode shard that was not
// dispatched as its own work unit — the GranularityEnv-with-store path,
// where the shard is one task and resolves its units serially before
// replaying the lifecycle. Cancellation stops between units; the caller
// notices via its own context checks.
func (sh *shard) ensureUnits() {
	if sh.mode != drawPlanned {
		return
	}
	for i := range sh.models {
		if sh.canceled() != nil {
			return
		}
		if sh.planned[i] != nil {
			continue // dispatched as its own task; already observed there
		}
		sh.resolveUnit(i)
	}
}

// draw produces the model result and hookup time of one run, from
// whichever source the shard's mode dictates. All three modes visit the
// underlying named streams in the same per-stream order, so drawInline
// and drawPlanned are byte-identical; drawLegacy reproduces the pre-spec
// shared-stream sequence instead.
func (sh *shard) draw(appIdx int, m apps.Model, nodes, iter int) (apps.Result, time.Duration, error) {
	spec := sh.spec
	switch sh.mode {
	case drawPlanned:
		pr, err := sh.planned[appIdx].take(m.Name(), nodes, iter)
		return pr.result, pr.hookup, err
	case drawLegacy:
		if sh.legacyStream == nil {
			sh.legacyStream = sh.sim.Stream(legacyRunStreamName(spec.Key))
		}
		rng := sh.legacyStream
		r := m.Run(spec.Env, nodes, rng)
		hk := sh.hookup.Hookup(spec.Provider, spec.Acc, spec.Kubernetes, nodes, rng)
		return r, hk, nil
	default: // drawInline
		rng := sh.runStream(appIdx)
		r := m.Run(spec.Env, nodes, rng)
		hk := sh.hookup.Hookup(spec.Provider, spec.Acc, spec.Kubernetes, nodes, rng)
		return r, hk, nil
	}
}

// runStream returns the shard's cached per-application draw stream,
// deriving it on first use. The cache is pure memoization of
// sim.Stream(runStreamName(...)) — same stream object, same state.
func (sh *shard) runStream(appIdx int) *sim.Stream {
	if sh.runStreams == nil {
		sh.runStreams = make([]*sim.Stream, len(sh.models))
	}
	if s := sh.runStreams[appIdx]; s != nil {
		return s
	}
	s := sh.sim.Stream(runStreamName(sh.spec.Key, sh.models[appIdx].Name()))
	sh.runStreams[appIdx] = s
	return s
}
