package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// TestFleetMethodsWithoutCoordinator pins the retired fleet.* family on
// the wire: every one of its methods answers CodeMethodNotFound (not the
// retired -32005..-32008 codes), and initialize still advertises
// "fleet":false so the handshake bytes are unchanged.
func TestFleetMethodsWithoutCoordinator(t *testing.T) {
	t.Parallel()
	srv := &Server{Drain: DrainCancel}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		hs.Close()
	})
	client := &Client{URL: hs.URL}
	ctx := context.Background()

	var init json.RawMessage
	if err := client.call(ctx, "initialize", InitializeParams{ProtocolVersion: ProtocolVersion}, &init); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(init, []byte(`"fleet":false`)) {
		t.Fatalf("initialize result %s does not advertise fleet:false", init)
	}

	for _, method := range []string{"fleet.register", "fleet.claim", "fleet.heartbeat", "fleet.complete", "fleet.nack"} {
		t.Run(method, func(t *testing.T) {
			var res json.RawMessage
			err := client.call(ctx, method, map[string]string{"worker": "W1", "lease": "L1"}, &res)
			var rpcErr *Error
			if !errors.As(err, &rpcErr) || rpcErr.Code != CodeMethodNotFound {
				t.Fatalf("%s: %v, want code %d", method, err, CodeMethodNotFound)
			}
		})
	}
}

// serveSpecOnce submits spec to a fresh Server over rs and polls until
// its session is done.
func serveSpecOnce(t *testing.T, rs *core.ResultStore, spec string) *Server {
	t.Helper()
	srv := &Server{Drain: DrainCancel, Runner: &core.Runner{Store: rs}}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		hs.Close()
	})
	client := &Client{URL: hs.URL}
	ctx := context.Background()
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		pr, err := client.Progress(ctx, sub.Session)
		if err != nil {
			t.Fatal(err)
		}
		if pr.State == "done" {
			return srv
		}
		if pr.State != "running" {
			t.Fatalf("session ended %s: %s", pr.State, pr.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("study did not complete within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// healthzStoreStats reads GET /healthz from srv and returns its
// storeStats object by camelCase key, plus the raw body.
func healthzStoreStats(t *testing.T, srv *Server) (map[string]int64, []byte) {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		StoreStats map[string]int64 `json:"storeStats"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	return wire.StoreStats, body
}

// TestHealthReportsStoreFallbacks drives the daemon's one remaining
// fallback — recomputing stored units that no longer decode — and
// requires /healthz to show it: the unit pack is corrupted underneath
// the registry, the spec is served again by a fresh Server, and the
// store's corruptFallbacks counter reads exactly the number of units in
// the pack — one per unit that fell back.
func TestHealthReportsStoreFallbacks(t *testing.T) {
	mem := store.NewMemory()
	rs := core.NewResultStore(mem)
	rs.Logf = t.Logf
	const spec = "seed 880918\nenvs onprem-a-cpu\napps amg2023 stream\nscales 2\niterations 2\n"

	first := serveSpecOnce(t, rs, spec)
	if h := first.Health(); h.StoreStats == nil || h.StoreStats.CorruptFallbacks != 0 || h.StoreStats.UnitMisses == 0 {
		t.Fatalf("cold serve health store stats %+v, want unit misses and no fallback", h.StoreStats)
	}

	// Drop the study bundle's tag and the memory tier so the second
	// serve reaches the unit pack; then damage the pack.
	reg := rs.Registry()
	packs := map[string]int{}
	for name, d := range reg.SyncInventory().Refs {
		switch {
		case strings.HasPrefix(name, "oras/tag/study/"):
			if err := reg.Backend().DeleteRef(name); err != nil {
				t.Fatal(err)
			}
		case strings.HasPrefix(name, "unit/"):
			packs[d]++
		}
	}
	if len(packs) != 1 {
		t.Fatalf("unit refs name %d packs, want 1", len(packs))
	}
	for d, units := range packs {
		if units != 2 {
			t.Fatalf("pack holds %d units, want 2", units)
		}
		if !mem.Corrupt(d) {
			t.Fatalf("pack %s not in store", d)
		}
	}
	core.FlushCachedRuns()

	second := serveSpecOnce(t, rs, spec)
	h := second.Health()
	if h.StoreStats == nil || h.StoreStats.CorruptFallbacks != 2 || h.StoreStats.WriteFailures != 0 {
		t.Fatalf("health store stats %+v, want corruptFallbacks 2 and no write failure", h.StoreStats)
	}

	// The same counter, under its camelCase key, on GET /healthz.
	if stats, body := healthzStoreStats(t, second); stats["corruptFallbacks"] != 2 {
		t.Fatalf("/healthz body %s: want storeStats.corruptFallbacks 2", body)
	}
}

// failingPuts is a blob store whose every Put fails.
type failingPuts struct{ store.BlobStore }

func (failingPuts) Put([]byte) (string, error) { return "", errors.New("disk full") }

// TestHealthReportsStoreWriteFailures: a daemon whose store cannot
// write still finishes the study, and /healthz counts both lost writes
// (the unit pack and the study bundle) under storeStats.writeFailures.
func TestHealthReportsStoreWriteFailures(t *testing.T) {
	rs := core.NewResultStore(failingPuts{store.NewMemory()})
	rs.Logf = t.Logf
	core.FlushCachedRuns() // a memoized dataset from an earlier -count run would skip the store
	srv := serveSpecOnce(t, rs, "seed 880919\nenvs onprem-a-cpu\napps stream\nscales 2\niterations 2\n")
	if stats, body := healthzStoreStats(t, srv); stats["writeFailures"] != 2 || stats["corruptFallbacks"] != 0 {
		t.Fatalf("/healthz body %s: want storeStats.writeFailures 2, corruptFallbacks 0", body)
	}
}
