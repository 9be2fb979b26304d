package main

// Outside-in probes for the traced run. Every probe wraps a public seam
// of the system — the store.BlobStore handed to core.NewResultStore, the
// store.Peer a sync round talks to, the http.Handler the daemon serves —
// so the program under test runs unmodified. The untraced run wires the
// plain store.Disk and handler, exactly as cmd/report and cmd/serve do.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudhpc/internal/store"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for none); Op is the benchmark operation it belongs
// to (-1 when the call cannot be attributed, e.g. daemon-side store
// writes while two clients run at once).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// recorder keeps spans in memory; they are written out when the run
// ends. It records only while on, which the harness switches around the
// measured work, so set-up and untimed preparation leave no spans. A nil
// *recorder records nothing, which is how the untraced run skips every
// probe cost.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	on      atomic.Bool
	ambient atomic.Int64 // span that calls arriving through a probe nest under, or -1
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.ambient.Store(-1)
	return r
}

// begin opens a span under parent; the op is inherited from the parent
// unless op is given (op >= 0).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if op < 0 && parent >= 0 {
		op = r.spans[parent].Op
	}
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// beginAmbient opens a span under whatever span the harness marked as
// the current caller (see setAmbient).
func (r *recorder) beginAmbient(name string) int {
	if r == nil {
		return -1
	}
	return r.begin(name, int(r.ambient.Load()), -1)
}

// record switches recording on or off.
func (r *recorder) record(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) setAmbient(id int) {
	if r != nil {
		r.ambient.Store(int64(id))
	}
}

// layerTimes sums, per span name, the span durations and the self times
// (duration minus the part of it covered by child spans) of closed
// spans.
func (r *recorder) layerTimes() (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	if r == nil {
		return total, self
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[i])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// blobCounts is the store layer's work, read from outside.
type blobCounts struct {
	PutCalls, PutBytes, GetCalls, GetBytes, SetRefsCalls int64
}

func (c blobCounts) sub(o blobCounts) blobCounts {
	return blobCounts{c.PutCalls - o.PutCalls, c.PutBytes - o.PutBytes, c.GetCalls - o.GetCalls, c.GetBytes - o.GetBytes, c.SetRefsCalls - o.SetRefsCalls}
}

// tracedStore is the store.BlobStore decorator handed to
// core.NewResultStore in the traced run: it times and counts the blob
// and ref calls the result store makes.
type tracedStore struct {
	store.BlobStore
	rec                                                *recorder
	putCalls, putBytes, getCalls, getBytes, setRefCall atomic.Int64
}

func (t *tracedStore) counts() blobCounts {
	return blobCounts{t.putCalls.Load(), t.putBytes.Load(), t.getCalls.Load(), t.getBytes.Load(), t.setRefCall.Load()}
}

func (t *tracedStore) Put(data []byte) (string, error) {
	id := t.rec.beginAmbient("store.put")
	d, err := t.BlobStore.Put(data)
	t.rec.end(id)
	t.putCalls.Add(1)
	t.putBytes.Add(int64(len(data)))
	return d, err
}

func (t *tracedStore) Get(digest string) ([]byte, error) {
	id := t.rec.beginAmbient("store.get")
	data, err := t.BlobStore.Get(digest)
	t.rec.end(id)
	t.getCalls.Add(1)
	t.getBytes.Add(int64(len(data)))
	return data, err
}

func (t *tracedStore) SetRef(name, digest string) error {
	id := t.rec.beginAmbient("store.setrefs")
	err := t.BlobStore.SetRef(name, digest)
	t.rec.end(id)
	t.setRefCall.Add(1)
	return err
}

func (t *tracedStore) SetRefs(refs map[string]string) error {
	id := t.rec.beginAmbient("store.setrefs")
	err := t.BlobStore.SetRefs(refs)
	t.rec.end(id)
	t.setRefCall.Add(1)
	return err
}

// tracedPeer is the store.Peer decorator a traced sync round talks
// through: it times the inventory exchange and every blob transfer.
type tracedPeer struct {
	store.Peer
	rec                 *recorder
	parent              int
	fetchCalls, putCall atomic.Int64
	inventoryBytes      atomic.Int64 // JSON size of the inventories the peer returned
}

func (p *tracedPeer) Inventory(ctx context.Context) (store.Inventory, error) {
	id := p.rec.begin("sync.inventory", p.parent, -1)
	inv, err := p.Peer.Inventory(ctx)
	p.rec.end(id)
	if data, merr := json.Marshal(inv); merr == nil {
		p.inventoryBytes.Add(int64(len(data)))
	}
	return inv, err
}

func (p *tracedPeer) Fetch(ctx context.Context, digest string) ([]byte, error) {
	p.fetchCalls.Add(1)
	id := p.rec.begin("sync.blob", p.parent, -1)
	defer p.rec.end(id)
	return p.Peer.Fetch(ctx, digest)
}

func (p *tracedPeer) Put(ctx context.Context, data []byte) (string, error) {
	p.putCall.Add(1)
	id := p.rec.begin("sync.blob", p.parent, -1)
	defer p.rec.end(id)
	return p.Peer.Put(ctx, data)
}

func (p *tracedPeer) SetRefs(ctx context.Context, refs map[string]string) (int, error) {
	id := p.rec.begin("sync.setrefs", p.parent, -1)
	defer p.rec.end(id)
	return p.Peer.SetRefs(ctx, refs)
}

// httpProbe is the middleware around rpc.Server.Handler in the traced
// run: it counts requests and sums the time handlers were busy.
type httpProbe struct {
	next     http.Handler
	rec      *recorder
	requests atomic.Int64
	busy     atomic.Int64 // nanoseconds, summed over concurrent requests
}

func (h *httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	start := time.Now()
	id := h.rec.begin("rpc.http", -1, -1)
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
	h.busy.Add(int64(time.Since(start)))
}
