package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/rpc"
)

// daemon is an in-process rpc.Server on a loopback net/http listener
// over an on-disk store, wired the way cmd/serve wires it.
type daemon struct {
	st     *openedStore
	srv    *rpc.Server
	probe  *httpProbe // nil when untraced
	hs     *http.Server
	served chan error
	url    string
}

func (ph *phase) startDaemon(ctx context.Context, dir string) (*daemon, error) {
	st, err := ph.openStore(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{st: st, srv: &rpc.Server{Runner: &core.Runner{Store: st.rs}}, served: make(chan error, 1)}
	var h http.Handler = d.srv.Handler()
	if ph.traced {
		d.probe = &httpProbe{next: h, rec: ph.rec}
		h = d.probe
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	// Ready once it answers a health probe.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
	if err != nil {
		d.stop()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.stop()
		return nil, err
	}
	resp.Body.Close()
	return d, nil
}

// stop drains the daemon's sessions, closes the listener and waits for
// the serve goroutine to return.
func (d *daemon) stop() {
	d.srv.Shutdown()
	d.hs.Close()
	<-d.served
	http.DefaultClient.CloseIdleConnections()
}

func (d *daemon) client() (*rpc.Client, func()) {
	tr := &http.Transport{}
	return &rpc.Client{URL: d.url, HTTP: &http.Client{Transport: tr}}, tr.CloseIdleConnections
}

// serveSync runs the serve-sync workload: client 1 submits never-seen
// specs and streams each session to study-finished; client 2 runs
// fixed-size store.Push rounds against the same daemon while client 1
// is busy. Both are closed loops, so the daemon never has more than two
// clients. The run is a series of daemon epochs of epochStudies studies
// each, every one with a fresh daemon and store, until the epochs add
// up to the run's time.
func (ph *phase) serveSync(ctx context.Context, seconds time.Duration, setupReps int) error {
	var d *daemon
	epoch := 0
	dir := func() string { return filepath.Join(ph.dir, "daemon-"+strconv.Itoa(epoch)) }
	setup := func() error {
		if err := checkGolden(ctx, ph.goldenPath()); err != nil {
			return err
		}
		if err := os.RemoveAll(dir()); err != nil {
			return err
		}
		var err error
		d, err = ph.startDaemon(ctx, dir())
		return err
	}
	teardown := func() {
		d.stop()
		os.RemoveAll(d.st.dir)
		// A restarted daemon starts with an empty memory tier too.
		core.FlushCachedRuns()
	}
	if err := ph.timedSetup(setupReps, setup, teardown); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(ph.prep.serveSeed))
	var spent time.Duration
	for {
		specs := ph.prep.matrix.studySpecs(rng, epochStudies)
		took, err := ph.serveEpoch(ctx, d, specs)
		spent += took
		teardown()
		if err != nil {
			return err
		}
		if spent >= seconds {
			break
		}
		epoch++
		if d, err = ph.startDaemon(ctx, dir()); err != nil {
			return err
		}
	}
	ph.heapMB = median(ph.heapSamples)
	return nil
}

// serveEpoch runs both clients against daemon d until client 1 has run
// specs, checks every served report against its store-free reference,
// and returns how long the clients ran.
func (ph *phase) serveEpoch(ctx context.Context, d *daemon, specs []string) (time.Duration, error) {
	c1, close1 := d.client()
	defer close1()
	c2, close2 := d.client()
	defer close2()

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats0 := d.st.rs.Stats()
	blobs0 := d.st.blobCounts()
	held0 := d.st.disk.Len()
	sent0, bytes0 := ph.layer.syncSent, ph.layer.syncBytes
	cpu0 := cpuTime()
	t0 := time.Now()
	ph.rec.record(true)
	ph.fp.measure(true)

	var studyFailed, roundFailed int
	var served []string // specs whose sessions finished, in order
	studying := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(studying)
		for _, text := range specs {
			ph.studies++
			lat, err := ph.serveOp(ctx, c1, text)
			if err != nil {
				studyFailed++
				fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
				continue
			}
			ph.latMS = append(ph.latMS, ms(lat))
			served = append(served, text)
		}
		ph.opTime += time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < epochRounds; r++ {
			select {
			case <-studying:
				return
			default:
			}
			ph.rounds++
			dur, err := ph.syncRound(ctx, rpc.StorePeer{C: c2}, ph.rounds)
			if err != nil {
				roundFailed++
				fmt.Fprintf(os.Stderr, "perfbench: sync round failed: %v\n", err)
				continue
			}
			ph.syncMS = append(ph.syncMS, ms(dur))
		}
	}()
	wg.Wait()
	spent := time.Since(t0)
	ph.rec.record(false)
	ph.fp.measure(false)
	ph.opCPU += cpuTime() - cpu0
	ph.failed += studyFailed + roundFailed

	// Every daemon-side counter is shared by both clients.
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	ph.layer.addStats(statsSub(d.st.rs.Stats(), stats0))
	ph.layer.blobs = ph.layer.blobs.add(d.st.blobCounts().sub(blobs0))
	ph.layer.filesCreated += int64(d.st.disk.Len() - held0)
	ph.layer.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.layer.gcCycles += uint64(m1.NumGC - m0.NumGC)
	ph.layer.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ph.layer.heapLive = append(ph.layer.heapLive, float64(m1.HeapAlloc)/mib)
	if d.probe != nil {
		ph.layer.httpRequests += d.probe.requests.Load()
		ph.layer.httpBusy += time.Duration(d.probe.busy.Load())
	}
	ph.layer.sessionsHeld += d.srv.Health().Sessions.Total

	// The daemon is still up: this is what it retains after the epoch.
	ph.heapSamples = append(ph.heapSamples, retainedHeapMB())
	if err := ph.storeUsage(d.st, ph.layer.syncSent-sent0, ph.layer.syncBytes-bytes0); err != nil {
		return spent, err
	}
	ph.failed += ph.verifyServed(ctx, d, served)
	return spent, nil
}

// verifyServed checks, after the timed window, that the report of every
// study the daemon finished matches its store-free reference, and
// returns how many did not. The daemon's datasets are read first through
// its own Runner tiers, then the references are computed afresh.
func (ph *phase) verifyServed(ctx context.Context, d *daemon, served []string) int {
	got := make([][32]byte, len(served))
	for i, text := range served {
		sha, err := reportSHA(ctx, &core.Runner{Store: d.st.rs}, text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: reading back spec %q from the daemon: %v\n", text, err)
			return len(served)
		}
		got[i] = sha
	}
	bad := 0
	for i, text := range served {
		ref, err := ph.cfg.reference(ctx, text)
		if err != nil || ref != got[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: op failed: daemon report for spec %q differs from its store-free reference (%v)\n", text, err)
		}
	}
	return bad
}

// serveOp submits one spec and streams its session until the terminal
// event, which must match the spec's store-free reference.
func (ph *phase) serveOp(ctx context.Context, c *rpc.Client, text string) (time.Duration, error) {
	op := ph.ops
	ph.ops++
	root := ph.rec.begin("op", -1, op)
	defer ph.rec.end(root)
	t0 := time.Now()
	id := ph.rec.begin("rpc.submit", root, -1)
	sub, err := c.Submit(ctx, text)
	ph.rec.end(id)
	submitted := time.Now()
	ph.layer.submit += submitted.Sub(t0)
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	if !sub.Created {
		return 0, fmt.Errorf("daemon already held spec %s", sub.SpecHash)
	}
	id = ph.rec.begin("runner.run", root, -1)
	var last rpc.StudyEvent
	var lat time.Duration
	first := true
	_, err = c.Subscribe(ctx, sub.Session, 0, func(raw []byte, ev rpc.StudyEvent) error {
		if first {
			ph.layer.firstEvent += time.Since(t0)
			first = false
		}
		ph.layer.eventLines++
		ph.layer.eventBytes += int64(len(raw)) + 1
		last = ev
		if ev.Kind == string(core.EventStudyFinished) || ev.Kind == string(core.EventStudyFailed) {
			lat = time.Since(t0)
		}
		return nil
	})
	ph.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("subscribe %s: %w", sub.Session, err)
	}
	if last.Kind != string(core.EventStudyFinished) || last.Total == 0 || last.Done != last.Total {
		return 0, fmt.Errorf("session %s ended with %s %d/%d (%s), want %s with every task done",
			sub.Session, last.Kind, last.Done, last.Total, last.Err, core.EventStudyFinished)
	}
	return lat, nil
}
