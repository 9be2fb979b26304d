package rpc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"
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
