package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
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

// TestHealthReportsStoreFallbacks drives the daemon's one remaining
// fallback — recomputing a stored artifact that no longer decodes — and
// requires /healthz to show it: one unit blob is corrupted underneath
// the registry, the spec is served again by a fresh Server, and the
// store's corruptFallbacks counter reads exactly 1.
func TestHealthReportsStoreFallbacks(t *testing.T) {
	mem := store.NewMemory()
	rs := core.NewResultStore(mem)
	rs.Logf = t.Logf
	const spec = "seed 880918\nenvs onprem-a-cpu\napps amg2023 stream\nscales 2\niterations 2\n"

	serve := func() *Server {
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
				break
			}
			if pr.State != "running" {
				t.Fatalf("session ended %s: %s", pr.State, pr.Err)
			}
			if time.Now().After(deadline) {
				t.Fatal("study did not complete within 60s")
			}
			time.Sleep(5 * time.Millisecond)
		}
		return srv
	}

	first := serve()
	if h := first.Health(); h.StoreStats == nil || h.StoreStats.CorruptFallbacks != 0 || h.StoreStats.UnitMisses == 0 {
		t.Fatalf("cold serve health store stats %+v, want unit misses and no fallback", h.StoreStats)
	}

	// Drop the study bundle's tag and the memory tier so the second
	// serve reaches the unit artifacts; then damage one unit blob.
	reg := rs.Registry()
	var units []string
	for name := range reg.SyncInventory().Refs {
		switch {
		case strings.HasPrefix(name, "oras/tag/study/"):
			if err := reg.Backend().DeleteRef(name); err != nil {
				t.Fatal(err)
			}
		case strings.HasPrefix(name, "oras/tag/unit/"):
			units = append(units, strings.TrimPrefix(name, "oras/tag/"))
		}
	}
	if len(units) != 2 {
		t.Fatalf("store holds %d unit artifacts, want 2", len(units))
	}
	sort.Strings(units)
	m, _, err := reg.Resolve(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Corrupt(string(m.Layers[0].Digest)) {
		t.Fatalf("layer %s of %s not in store", m.Layers[0].Digest, units[0])
	}
	core.FlushCachedRuns()

	second := serve()
	h := second.Health()
	if h.StoreStats == nil || h.StoreStats.CorruptFallbacks != 1 {
		t.Fatalf("health store stats %+v, want corruptFallbacks 1", h.StoreStats)
	}

	// The same counter, under its camelCase key, on GET /healthz.
	hs := httptest.NewServer(second.Handler())
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
	if wire.StoreStats["corruptFallbacks"] != 1 {
		t.Fatalf("/healthz body %s: want storeStats.corruptFallbacks 1", body)
	}
}
