package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // checkout root: where the golden file lives
	work     string // scratch directory for stores and span files
	// wrongRefs replaces every reference with a wrong one; the self-test
	// uses it to prove that a mismatch is counted as a failed op.
	wrongRefs bool
}

// workloadWhy records why each workload exists; it is echoed in every
// result's provenance line and, for the workloads BENCHMARK.json runs,
// matches the "why" there.
var workloadWhy = map[string]string{
	"report-cold":        "distinct full-matrix specs run into an on-disk store with the memory tier flushed per op: simulation, encoding and ~434 blob file writes per study",
	"report-warm":        "stored specs re-run with the memory tier flushed per op: no simulation, 5 blob reads; decode and report rendering dominate, compute gains must show nothing",
	"report-incremental": "a spec that adds one environment to a stored study: 132 unit reads beside 11 unit computes and a bundle write; decides whether the unit tier pays",
	"serve-sync":         "client 1 streams never-seen studies through the rpc daemon while client 2 pushes fixed-size sync rounds to it: the only load on rpc, sessions and store sync",
}

// prep is what the harness computes before any phase: the spec pools,
// their store-free references, and the sync-round content. None of it is
// timed.
type prep struct {
	matrix    studyMatrix
	specs     []string // report-cold, report-warm
	pairs     []incrementalPair
	serveSeed int64               // serve-sync draws its specs from this seed
	refs      map[string][32]byte // report sha256 by spec text (report-* only)
	content   *syncContent        // sync-round payload
}

// phase is one measured stretch of a run: its own set-up, store and
// counters. A traced run makes an untraced phase and a traced one.
type phase struct {
	cfg    config
	prep   *prep
	traced bool
	rec    *recorder // nil when untraced
	fp     *footprint
	dir    string // this phase's directory under cfg.work
	ops    int    // ops started, for span attribution

	setupSecs []float64
	latMS     []float64 // one per successful study op
	opTime    time.Duration
	opCPU     time.Duration
	studies   int // study ops attempted
	rounds    int // sync rounds attempted
	failed    int
	syncMS    []float64 // one per successful sync round
	problems  []string  // failed bypass assertions

	storeFiles, storeStudies int
	storeBytes               int64
	heapMB, rssMB            float64
	heapSamples              []float64 // serve-sync: retained heap after each epoch

	layer layerSums
}

// layerSums accumulates per-layer work over the timed windows of a
// phase; the traced result divides them by the op count.
type layerSums struct {
	stats                  core.StoreStats
	blobs                  blobCounts
	filesCreated           int64
	markdownBytes          int64
	allocBytes, gcCycles   uint64
	gcPause                time.Duration
	heapLive               []float64
	submit, firstEvent     time.Duration
	eventLines, eventBytes int64
	httpRequests           int64
	httpBusy               time.Duration
	sessionsHeld           int
	syncFetch, syncPut     int64
	syncSent, syncRefs     int
	syncSkipped            int
	syncBytes              int64
	inventoryBytes         int64
}

func (ph *phase) failf(format string, args ...any) {
	ph.failed++
	fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
}

func (ph *phase) assertf(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		ph.problems = append(ph.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: bypass assertion failed:", msg)
	}
}

// timedSetup runs set-up reps times, tearing down all but the last, and
// records how long each took.
func (ph *phase) timedSetup(reps int, setup func() error, teardown func()) error {
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ph.setupSecs = append(ph.setupSecs, time.Since(t0).Seconds())
	}
	return nil
}

func (ph *phase) goldenPath() string {
	return filepath.Join(ph.cfg.root, "internal", "core", "testdata", "golden_seed2025.txt")
}

// openedStore is a result store over a store.Disk, decorated when the
// phase is traced.
type openedStore struct {
	dir    string
	disk   *store.Disk
	traced *tracedStore // nil when untraced
	rs     *core.ResultStore
}

func (ph *phase) openStore(dir string) (*openedStore, error) {
	disk, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &openedStore{dir: dir, disk: disk}
	var bs store.BlobStore = disk
	if ph.traced {
		s.traced = &tracedStore{BlobStore: disk, rec: ph.rec}
		bs = s.traced
	}
	s.rs = core.NewResultStore(bs)
	s.rs.Logf = nil
	return s, nil
}

func (s *openedStore) blobCounts() blobCounts {
	if s.traced == nil {
		return blobCounts{}
	}
	return s.traced.counts()
}

// studiesHeld counts the study bundles the store carries.
func (s *openedStore) studiesHeld() int {
	n := 0
	for _, tag := range s.rs.Registry().Tags() {
		if strings.HasPrefix(tag, "study/") {
			n++
		}
	}
	return n
}

// storeUsage adds the store's files and bytes, less what sync rounds
// delivered into it, to the phase's per-study footprint.
func (ph *phase) storeUsage(s *openedStore, syncFiles int, syncBytes int64) error {
	files, bytes, err := dirUsage(s.dir)
	if err != nil {
		return err
	}
	ph.storeFiles += files - syncFiles
	ph.storeBytes += bytes - syncBytes
	ph.storeStudies += s.studiesHeld()
	return nil
}

// window snapshots the counters a timed window is bracketed by.
type window struct {
	t0    time.Time
	cpu   time.Duration
	stats core.StoreStats
	blobs blobCounts
	held  int
	mem   runtime.MemStats
}

func (ph *phase) openWindow(s *openedStore) window {
	w := window{stats: s.rs.Stats(), blobs: s.blobCounts(), held: s.disk.Len()}
	if ph.traced {
		runtime.ReadMemStats(&w.mem)
	}
	ph.fp.measure(true)
	w.cpu = cpuTime()
	w.t0 = time.Now()
	return w
}

// closeWindow ends a timed window, adds its work to the phase's sums,
// and returns the window's duration and the store-stat delta.
func (ph *phase) closeWindow(s *openedStore, w window) (time.Duration, core.StoreStats) {
	d := time.Since(w.t0)
	cpu := cpuTime() - w.cpu
	ph.fp.measure(false)
	ph.opTime += d
	ph.opCPU += cpu
	delta := statsSub(s.rs.Stats(), w.stats)
	ph.layer.addStats(delta)
	blobs := s.blobCounts().sub(w.blobs)
	ph.layer.blobs = ph.layer.blobs.add(blobs)
	ph.layer.filesCreated += int64(s.disk.Len() - w.held)
	if ph.traced {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		ph.layer.allocBytes += m.TotalAlloc - w.mem.TotalAlloc
		ph.layer.gcCycles += uint64(m.NumGC - w.mem.NumGC)
		ph.layer.gcPause += time.Duration(m.PauseTotalNs - w.mem.PauseTotalNs)
		ph.layer.heapLive = append(ph.layer.heapLive, float64(m.HeapAlloc)/mib)
	}
	return d, delta
}

func statsSub(a, b core.StoreStats) core.StoreStats {
	return core.StoreStats{
		StudyHits:        a.StudyHits - b.StudyHits,
		StudyMisses:      a.StudyMisses - b.StudyMisses,
		UnitHits:         a.UnitHits - b.UnitHits,
		UnitMisses:       a.UnitMisses - b.UnitMisses,
		CorruptFallbacks: a.CorruptFallbacks - b.CorruptFallbacks,
	}
}

func (l *layerSums) addStats(d core.StoreStats) {
	l.stats.StudyHits += d.StudyHits
	l.stats.StudyMisses += d.StudyMisses
	l.stats.UnitHits += d.UnitHits
	l.stats.UnitMisses += d.UnitMisses
	l.stats.CorruptFallbacks += d.CorruptFallbacks
}

func (c blobCounts) add(o blobCounts) blobCounts {
	return blobCounts{c.PutCalls + o.PutCalls, c.PutBytes + o.PutBytes, c.GetCalls + o.GetCalls, c.GetBytes + o.GetBytes, c.SetRefsCalls + o.SetRefsCalls}
}

// reference runs spec with no persistent store and returns the sha256
// of its Markdown report. The memory tier is flushed before and after,
// so the reference is computed afresh and neither serves nor shadows a
// measured op.
func (cfg config) reference(ctx context.Context, text string) ([32]byte, error) {
	core.FlushCachedRuns()
	defer core.FlushCachedRuns()
	ref, err := reportSHA(ctx, &core.Runner{}, text)
	if err != nil {
		return ref, fmt.Errorf("reference for spec %q: %w", text, err)
	}
	if cfg.wrongRefs {
		ref[0] ^= 0xff
	}
	return ref, nil
}

// makePrep draws the workload's inputs from the seed and computes their
// references.
func makePrep(ctx context.Context, cfg config) (*prep, error) {
	m, err := loadMatrix()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	p := &prep{matrix: m, refs: map[string][32]byte{}}
	var texts []string
	switch cfg.workload {
	case "report-cold":
		p.specs = m.fullSpecs(rng, coldPool)
		texts = p.specs
	case "report-warm":
		p.specs = m.studySpecs(rng, len(studyShapes))
		texts = p.specs
	case "report-incremental":
		p.pairs = m.incrementalSpecs(rng, incrementalPool)
		for _, pr := range p.pairs {
			texts = append(texts, pr.full)
		}
	case "serve-sync":
		// Each daemon epoch draws its own never-seen specs (see
		// serveSync); their references are computed after the epoch.
		p.serveSeed = rng.Int63()
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	for _, t := range texts {
		ref, err := cfg.reference(ctx, t)
		if err != nil {
			return nil, err
		}
		p.refs[t] = ref
	}
	p.content, err = newSyncContent(ctx, filepath.Join(cfg.work, "sync-content"), m, rng)
	if err != nil {
		return nil, fmt.Errorf("sync content: %w", err)
	}
	return p, nil
}

const (
	// coldPool is how many full-matrix specs report-cold cycles through,
	// with a fresh store per pass.
	coldPool = 24
	// incrementalPool is how many (base, full) pairs report-incremental
	// cycles through; each pass over them uses a fresh store.
	incrementalPool = 6
	// epochStudies is how many studies one serve-sync daemon runs
	// before the next epoch starts a fresh daemon and store; epochRounds
	// caps the sync rounds of one epoch. Together they bound the store a
	// sync round inventories: store.inventory answers in one NDJSON line
	// capped at 4 MiB, which a daemon holding about 80 studies exceeds.
	epochStudies = 20
	epochRounds  = 8
	// localSyncRounds is how many store-to-store sync rounds the report-*
	// workloads time after their study loop.
	localSyncRounds = 25
)

// runPhase sets the workload up and measures it until the deadline.
func runPhase(ctx context.Context, cfg config, p *prep, traced bool, seconds time.Duration, setupReps int) (*phase, error) {
	core.FlushCachedRuns()
	defer core.FlushCachedRuns()
	ph := &phase{cfg: cfg, prep: p, traced: traced}
	if traced {
		ph.rec = newRecorder()
	}
	ph.dir = filepath.Join(cfg.work, "phase-"+strconv.FormatBool(traced))
	if err := os.RemoveAll(ph.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(ph.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ph.dir)
	ph.fp = startFootprint()
	var err error
	if cfg.workload == "serve-sync" {
		err = ph.serveSync(ctx, seconds, setupReps)
	} else {
		err = ph.reportLoop(ctx, seconds, setupReps)
	}
	ph.rssMB = ph.fp.close()
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(cfg.workload, "report-") {
		ph.assertf(ph.layer.httpRequests == 0, "%s made %d rpc request(s)", cfg.workload, ph.layer.httpRequests)
	}
	if traced {
		spans := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := ph.rec.writeJSONL(spans); err != nil {
			return nil, err
		}
	}
	return ph, nil
}
