package rpc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/fleet"
)

// The tests below send multi-line POSTs the way a slow or distant client
// does: the first request line reaches the server well before the rest
// of the body, so the server replies to it first. Over a real net/http
// HTTP/1.x server that only works in full-duplex mode; otherwise the
// server discards the unread rest of the body once the first reply is
// flushed, and the later lines never arrive.

// pacedClient returns an HTTP client whose request bodies go out in two
// parts: the first line, then — after a pause — everything else. The
// body is sent chunked so each part is on the wire as soon as it is read.
func pacedClient(pause time.Duration) *http.Client {
	return &http.Client{Transport: pacedTransport(pause)}
}

type pacedTransport time.Duration

func (p pacedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	first := bytes.IndexByte(body, '\n') + 1
	paced := req.Clone(req.Context())
	paced.Body = io.NopCloser(io.MultiReader(
		bytes.NewReader(body[:first]), pauseReader(p), bytes.NewReader(body[first:])))
	paced.ContentLength = -1
	paced.GetBody = nil
	return http.DefaultTransport.RoundTrip(paced)
}

// pauseReader sleeps, then reports EOF: a gap in an io.MultiReader.
type pauseReader time.Duration

func (p pauseReader) Read([]byte) (int, error) {
	time.Sleep(time.Duration(p))
	return 0, io.EOF
}

// TestLargeStorePutArrivesWhole uploads a blob one chunk plus a short
// tail long: two store.put lines in one POST.
func TestLargeStorePutArrivesWhole(t *testing.T) {
	t.Parallel()
	hub, peer := newSyncHub(t)
	peer.C.HTTP = pacedClient(100 * time.Millisecond)
	blob := make([]byte, syncChunkBytes+4096)
	for i := range blob {
		blob[i] = byte(i*7 + i>>11)
	}
	d, err := peer.Put(context.Background(), blob)
	if err != nil {
		t.Fatalf("put of a %d-byte blob: %v", len(blob), err)
	}
	got, err := hub.Get(d)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("hub holds %d bytes (err %v), want %d intact", len(got), err, len(blob))
	}
}

// TestPushUnitArrivesWhole serves every unit of a study by hand over
// the wire — claim, compute, PushUnit — and requires every push to be
// accepted, with no unit falling back to local compute.
func TestPushUnitArrivesWhole(t *testing.T) {
	client, _, co, _, cleanup := fleetTestServer(t, fleet.Options{
		LeaseTTL:     30 * time.Second,
		MaxClaimWait: 50 * time.Millisecond,
		Straggler:    30 * time.Second,
	})
	defer cleanup()
	pusher := &Client{URL: client.URL, HTTP: pacedClient(100 * time.Millisecond)}
	ctx := context.Background()
	reg, err := client.FleetRegister(ctx, Implementation{Name: "w", Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// Every unit must miss the process-wide memory tier to be offloaded,
	// also on a repeated run (-count).
	core.FlushCachedRuns()
	sub, err := client.Submit(ctx, "seed 880917\nenvs google-gke-cpu\nscales 2\niterations 2\ngranularity env-app\n")
	if err != nil {
		t.Fatal(err)
	}
	pushed := 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		claim, err := client.FleetClaim(ctx, reg.Worker, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if claim.Unit != nil {
			files, err := core.ComputeUnitFiles(*claim.Unit)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pusher.PushUnit(ctx, reg.Worker, claim.Lease, *claim.Unit, files)
			if err != nil {
				t.Fatalf("push of unit %s: %v", claim.Unit.Key, err)
			}
			if !res.Accepted {
				t.Fatalf("push of unit %s not accepted: %+v", claim.Unit.Key, res)
			}
			pushed++
			continue
		}
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
	}
	s := co.Stats()
	if pushed == 0 || s.Completed != int64(pushed) || s.Fallbacks != 0 {
		t.Fatalf("pushed %d units; coordinator stats %+v, want all completed and no fallbacks", pushed, s)
	}
}
