package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// syncContent is the payload of a sync round: the blobs and refs of one
// real stored study, prepared once. Each round re-stamps every blob with
// the round number, so every round moves the same number of blobs of the
// same sizes, none of which the receiver already holds.
type syncContent struct {
	blobs [][]byte
	refs  map[string]int // ref name → index into blobs
}

func newSyncContent(ctx context.Context, dir string, m studyMatrix, rng *rand.Rand) (*syncContent, error) {
	defer os.RemoveAll(dir)
	defer core.FlushCachedRuns()
	disk, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	rs := core.NewResultStore(disk)
	rs.Logf = nil
	spec, err := core.ParseSpec(specText(studySeed(rng), []string{"*"}, m.apps, false))
	if err != nil {
		return nil, err
	}
	if _, err := (&core.Runner{Store: rs}).Run(ctx, spec); err != nil {
		return nil, err
	}
	c := &syncContent{refs: map[string]int{}}
	index := map[string]int{}
	for _, d := range disk.Digests() {
		data, err := disk.Get(d)
		if err != nil {
			return nil, err
		}
		index[d] = len(c.blobs)
		c.blobs = append(c.blobs, data)
	}
	for _, name := range disk.Refs() {
		d, _ := disk.Ref(name)
		i, ok := index[d]
		if !ok {
			return nil, fmt.Errorf("ref %s names missing blob %s", name, d)
		}
		c.refs[name] = i
	}
	return c, nil
}

// round builds round r's source store.
func (c *syncContent) round(r int) (*store.Memory, error) {
	src := store.NewMemory()
	stamp := []byte("\n# sync round " + strconv.Itoa(r) + "\n")
	digests := make([]string, len(c.blobs))
	for i, b := range c.blobs {
		d, err := src.Put(append(append(make([]byte, 0, len(b)+len(stamp)), b...), stamp...))
		if err != nil {
			return nil, err
		}
		digests[i] = d
	}
	refs := make(map[string]string, len(c.refs))
	for name, i := range c.refs {
		refs["sync/"+strconv.Itoa(r)+"/"+name] = digests[i]
	}
	if err := src.SetRefs(refs); err != nil {
		return nil, err
	}
	return src, nil
}

// syncRound pushes round r's content to peer and checks that the peer
// converged: an empty Diff and no skipped blobs. It returns the round's
// wall time; an error means the round failed.
func (ph *phase) syncRound(ctx context.Context, peer store.Peer, r int) (time.Duration, error) {
	src, err := ph.prep.content.round(r)
	if err != nil {
		return 0, err
	}
	plain := peer
	var probe *tracedPeer
	if ph.traced {
		root := ph.rec.begin("sync.round", -1, -1)
		defer ph.rec.end(root)
		probe = &tracedPeer{Peer: peer, rec: ph.rec, parent: root}
		peer = probe
	}
	t0 := time.Now()
	st, err := store.Push(ctx, src, peer)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	ph.layer.syncSent += st.BlobsSent
	ph.layer.syncBytes += st.BytesSent
	ph.layer.syncRefs += st.RefsApplied
	ph.layer.syncSkipped += st.BlobsSkipped
	if probe != nil {
		ph.layer.syncFetch += probe.fetchCalls.Load()
		ph.layer.syncPut += probe.putCall.Load()
		ph.layer.inventoryBytes += probe.inventoryBytes.Load()
	}
	if st.BlobsSkipped != 0 {
		return d, fmt.Errorf("sync round %d skipped %d blob(s)", r, st.BlobsSkipped)
	}
	if want := len(ph.prep.content.blobs); st.BlobsSent != want {
		return d, fmt.Errorf("sync round %d sent %d blob(s), want %d", r, st.BlobsSent, want)
	}
	inv, err := plain.Inventory(ctx)
	if err != nil {
		return d, err
	}
	if delta := store.Diff(store.TakeInventory(src), inv); len(delta.Blobs) != 0 || len(delta.Refs) != 0 {
		return d, fmt.Errorf("sync round %d left %d blob(s) and %d ref(s) unsynced", r, len(delta.Blobs), len(delta.Refs))
	}
	return d, nil
}
