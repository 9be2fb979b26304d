// Command perfbench is the study system's end-to-end benchmark. It runs
// one workload for a fixed time and prints one JSON result line:
//
//	perfbench -workload report-warm -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics of an untraced
// run. With -trace 1 it carries the per-layer metrics of a traced run,
// measured from outside through decorators on the system's public seams,
// plus the tracing overhead against an untraced phase of the same run.
// See README.md for the workloads, the metrics and what each layer
// metric is predicted to move. perfbench/run.sh builds and runs it from
// the root of a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "report-cold, report-warm, report-incremental or serve-sync")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	root := flag.String("root", ".", "root of the checkout under test")
	flag.Parse()
	if _, ok := workloadWhy[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		root:     *root,
		work:     filepath.Join(*root, ".bench_build", "perfbench", "run-"+strconv.Itoa(os.Getpid())),
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns its result. A failed golden
// check or set-up is an error; failed ops and failed bypass assertions
// make the result incorrect.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	p, err := makePrep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var phases []*phase
	if cfg.traced {
		// Half the time untraced, half traced: the difference between the
		// two is the tracing overhead.
		half := cfg.seconds / 2
		for _, traced := range []bool{false, true} {
			ph, err := runPhase(ctx, cfg, p, traced, half, 1)
			if err != nil {
				return nil, err
			}
			phases = append(phases, ph)
		}
	} else {
		ph, err := runPhase(ctx, cfg, p, false, cfg.seconds, setupReps)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	res := &result{Correct: true}
	for _, ph := range phases {
		res.Attempted += ph.studies + ph.rounds
		res.Failed += ph.failed
		if len(ph.problems) > 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	last := phases[len(phases)-1]
	if cfg.traced {
		res.Metrics = layerMetrics(last, phases[0])
	} else {
		res.Metrics = endToEndMetrics(last)
	}
	printProvenance(cfg, last)
	return res, nil
}

// setupReps is how many times an untraced run sets the workload up; it
// reports the median.
const setupReps = 5

func printProvenance(cfg config, ph *phase) {
	prov := map[string]any{
		"workload":    cfg.workload,
		"why":         workloadWhy[cfg.workload],
		"seed":        cfg.seed,
		"seconds":     cfg.seconds.Seconds(),
		"trace":       cfg.traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"store_fs":    fsType(cfg.work),
		"clients":     1,
		"loop":        "closed",
		"studies":     ph.studies,
		"sync_rounds": ph.rounds,
		"fleet":       "not measured: a serve -fleet run cannot finish until ROADMAP item 1 is fixed",
	}
	if cfg.workload == "serve-sync" {
		prov["clients"] = 2
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
}

func endToEndMetrics(ph *phase) map[string]metric {
	attempted := float64(ph.studies + ph.rounds)
	studies := float64(ph.storeStudies)
	return map[string]metric{
		"setup_s":               {median(ph.setupSecs), "s"},
		"study_p50_ms":          {quantile(ph.latMS, 0.5), "ms"},
		"study_p95_ms":          {quantile(ph.latMS, 0.95), "ms"},
		"studies_per_s":         {ratio(float64(len(ph.latMS)), ph.opTime.Seconds()), "1/s"},
		"cpu_ms_per_study":      {ratio(ms(ph.opCPU), float64(ph.studies)), "ms"},
		"rss_peak_mb":           {ph.rssMB, "MB"},
		"heap_retained_mb":      {ph.heapMB, "MB"},
		"store_files_per_study": {ratio(float64(ph.storeFiles), studies), "count"},
		"store_mb_per_study":    {ratio(float64(ph.storeBytes)/mib, studies), "MB"},
		"ok_ops_frac":           {ratio(attempted-float64(ph.failed), attempted), "ratio"},
	}
}

// layerMetrics reports the traced phase's per-layer work per op: per
// study op, except the sync.* metrics, which are per sync round.
func layerMetrics(ph, untraced *phase) map[string]metric {
	total, self := ph.rec.layerTimes()
	n := float64(max(ph.studies, 1))
	rounds := float64(max(ph.rounds, 1))
	per := func(v float64) float64 { return v / n }
	perMS := func(name string) float64 { return ms(total[name]) / n }
	l := ph.layer
	m := map[string]metric{
		"spec.resolve_ms":               {perMS("spec.resolve"), "ms"},
		"runner.run_ms":                 {perMS("runner.run"), "ms"},
		"runner.self_ms":                {ms(self["runner.run"]) / n, "ms"},
		"resultstore.study_hits":        {per(float64(l.stats.StudyHits)), "count"},
		"resultstore.study_misses":      {per(float64(l.stats.StudyMisses)), "count"},
		"resultstore.unit_hits":         {per(float64(l.stats.UnitHits)), "count"},
		"resultstore.unit_misses":       {per(float64(l.stats.UnitMisses)), "count"},
		"resultstore.corrupt_fallbacks": {per(float64(l.stats.CorruptFallbacks)), "count"},
		"store.put_calls":               {per(float64(l.blobs.PutCalls)), "count"},
		"store.put_ms":                  {perMS("store.put"), "ms"},
		"store.put_mb":                  {per(float64(l.blobs.PutBytes) / mib), "MB"},
		"store.get_calls":               {per(float64(l.blobs.GetCalls)), "count"},
		"store.get_ms":                  {perMS("store.get"), "ms"},
		"store.get_mb":                  {per(float64(l.blobs.GetBytes) / mib), "MB"},
		"store.setrefs_calls":           {per(float64(l.blobs.SetRefsCalls)), "count"},
		"store.setrefs_ms":              {perMS("store.setrefs"), "ms"},
		"store.files_created":           {per(float64(l.filesCreated)), "count"},
		"report.markdown_ms":            {perMS("report.markdown"), "ms"},
		"report.bytes":                  {per(float64(l.markdownBytes)), "bytes"},
		"rpc.submit_ms":                 {ms(l.submit) / n, "ms"},
		"rpc.first_event_ms":            {ms(l.firstEvent) / n, "ms"},
		"rpc.event_lines":               {per(float64(l.eventLines)), "count"},
		"rpc.event_kb":                  {per(float64(l.eventBytes) / 1024), "KB"},
		"rpc.http_requests":             {per(float64(l.httpRequests)), "count"},
		"rpc.http_busy_ms":              {ms(l.httpBusy) / n, "ms"},
		"rpc.sessions_held":             {per(float64(l.sessionsHeld)), "count"},
		"sync_round_p50_ms":             {median(ph.syncMS), "ms"},
		"sync.inventory_ms":             {ms(total["sync.inventory"]) / rounds, "ms"},
		"sync.inventory_kb":             {float64(l.inventoryBytes) / 1024 / rounds, "KB"},
		"sync.fetch_calls":              {float64(l.syncFetch) / rounds, "count"},
		"sync.put_calls":                {float64(l.syncPut) / rounds, "count"},
		"sync.blob_ms":                  {ms(total["sync.blob"]) / rounds, "ms"},
		"sync.blobs_sent":               {float64(l.syncSent) / rounds, "count"},
		"sync.mb_sent":                  {float64(l.syncBytes) / mib / rounds, "MB"},
		"sync.refs_applied":             {float64(l.syncRefs) / rounds, "count"},
		"sync.blobs_skipped":            {float64(l.syncSkipped) / rounds, "count"},
		"runtime.alloc_mb":              {per(float64(l.allocBytes) / mib), "MB"},
		"runtime.gc_cycles":             {per(float64(l.gcCycles)), "count"},
		"runtime.gc_pause_ms":           {ms(l.gcPause) / n, "ms"},
		"runtime.heap_live_mb":          {median(l.heapLive), "MB"},
	}
	base := median(untraced.latMS)
	m["trace.overhead_pct"] = metric{100 * ratio(median(ph.latMS)-base, base), "%"}
	return m
}
