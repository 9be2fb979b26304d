package oras

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"cloudhpc/internal/store"
)

func TestDigestOfStable(t *testing.T) {
	t.Parallel()
	a := DigestOf([]byte("hello"))
	b := DigestOf([]byte("hello"))
	if a != b {
		t.Fatalf("digest not deterministic")
	}
	if a == DigestOf([]byte("world")) {
		t.Fatalf("different content same digest")
	}
	if a[:7] != "sha256:" {
		t.Fatalf("digest format: %s", a)
	}
}

func TestPushFetchBlob(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, err := r.PushBlob("text/plain", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if desc.Size != 4 {
		t.Fatalf("size = %d", desc.Size)
	}
	got, err := r.FetchBlob(desc.Digest)
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	if _, err := r.FetchBlob("sha256:0000"); !errors.Is(err, ErrBlobUnknown) {
		t.Fatalf("unknown blob: %v", err)
	}
}

func TestBlobDeduplication(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.PushBlob("a", []byte("same"))
	r.PushBlob("b", []byte("same"))
	if r.BlobCount() != 1 {
		t.Fatalf("identical content should deduplicate, have %d blobs", r.BlobCount())
	}
}

func TestFetchReturnsCopy(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("immutable"))
	got, _ := r.FetchBlob(desc.Digest)
	got[0] = 'X'
	again, _ := r.FetchBlob(desc.Digest)
	if again[0] != 'i' {
		t.Fatalf("registry content mutated through a fetch")
	}
}

func TestManifestNeedsLayers(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	_, err := r.PushManifest(Manifest{Layers: []Descriptor{{Digest: "sha256:missing"}}})
	if !errors.Is(err, ErrBlobUnknown) {
		t.Fatalf("dangling layer accepted: %v", err)
	}
}

func TestTagResolve(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("x"))
	d, err := r.PushManifest(Manifest{ArtifactType: "test", Layers: []Descriptor{desc}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Tag("v1", d); err != nil {
		t.Fatal(err)
	}
	m, got, err := r.Resolve("v1")
	if err != nil || got != d || m.ArtifactType != "test" {
		t.Fatalf("resolve: %v %v", got, err)
	}
	if err := r.Tag("bad", "sha256:nope"); !errors.Is(err, ErrManifestUnknown) {
		t.Fatalf("tagging unknown manifest: %v", err)
	}
	if _, _, err := r.Resolve("absent"); !errors.Is(err, ErrTagUnknown) {
		t.Fatalf("unknown tag: %v", err)
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	files := map[string][]byte{
		"lammps-256.out": []byte("FOM 443.9"),
		"hostfile":       []byte("node0\nnode1"),
	}
	if _, err := r.Push("results/run1", "app/results", files, map[string]string{"env": "gke"}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Pull("results/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got["lammps-256.out"], files["lammps-256.out"]) {
		t.Fatalf("round trip lost data: %v", got)
	}
	tags := r.Tags()
	if len(tags) != 1 || tags[0] != "results/run1" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestManifestDigestCanonical(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	desc, _ := r.PushBlob("t", []byte("x"))
	m1 := Manifest{ArtifactType: "a", Layers: []Descriptor{desc},
		Annotations: map[string]string{"k1": "v1", "k2": "v2"}}
	m2 := Manifest{ArtifactType: "a", Layers: []Descriptor{desc},
		Annotations: map[string]string{"k2": "v2", "k1": "v1"}}
	d1, _ := r.PushManifest(m1)
	d2, _ := r.PushManifest(m2)
	if d1 != d2 {
		t.Fatalf("annotation order changed manifest identity")
	}
}

func TestConcurrentPushes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				data := []byte{byte(i), byte(j)}
				desc, err := r.PushBlob("t", data)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if got, err := r.FetchBlob(desc.Digest); err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent fetch mismatch")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if r.BlobCount() != 16*50 {
		t.Fatalf("blob count = %d", r.BlobCount())
	}
}

func TestBlobRoundTripProperty(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	f := func(data []byte) bool {
		desc, err := r.PushBlob("t", data)
		if err != nil {
			return false
		}
		got, err := r.FetchBlob(desc.Digest)
		return err == nil && bytes.Equal(got, data) && desc.Size == int64(len(data))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryPersistsOverDiskStore proves the pluggable backend end to
// end: a registry over a disk store survives process exit — reopening the
// same directory yields a registry that resolves every tag and verifies
// every blob.
func TestRegistryPersistsOverDiskStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRegistryWith(bs)
	files := map[string][]byte{"runs.jsonl": []byte(`{"env":"e"}` + "\n")}
	if _, err := r1.Push("results/e/app", "app/results", files, map[string]string{"records": "1"}); err != nil {
		t.Fatal(err)
	}

	bs2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistryWith(bs2)
	if tags := r2.Tags(); len(tags) != 1 || tags[0] != "results/e/app" {
		t.Fatalf("tags after reopen = %v", tags)
	}
	got, err := r2.Pull("results/e/app")
	if err != nil || !bytes.Equal(got["runs.jsonl"], files["runs.jsonl"]) {
		t.Fatalf("pull after reopen: %v %q", err, got)
	}
	if r2.BlobCount() != 1 || r2.ManifestCount() != 1 {
		t.Fatalf("counts after reopen: %d blobs, %d manifests", r2.BlobCount(), r2.ManifestCount())
	}
}

// TestFetchCorruptBlobReportsMismatch pins the verification path: bytes
// damaged underneath the registry surface as ErrDigestMismatch, never as
// silently wrong content.
func TestFetchCorruptBlobReportsMismatch(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	desc, _ := r.PushBlob("t", []byte("pristine"))
	bs.Corrupt(string(desc.Digest))
	if _, err := r.FetchBlob(desc.Digest); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("want ErrDigestMismatch, got %v", err)
	}
}

// TestLiveDigestsCoverManifestClosure: GC against the registry's live set
// sweeps an untagged orphan blob but keeps every manifest and layer.
func TestLiveDigestsCoverManifestClosure(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	if _, err := r.Push("keep", "t", map[string][]byte{"a": []byte("layer-a")}, nil); err != nil {
		t.Fatal(err)
	}
	orphan, _ := bs.Put([]byte("orphan"))
	live, err := r.LiveDigests()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := bs.GC(live)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || bs.Has(orphan) {
		t.Fatalf("gc removed %d, orphan present=%v", removed, bs.Has(orphan))
	}
	if _, err := r.Pull("keep"); err != nil {
		t.Fatalf("gc broke a tagged artifact: %v", err)
	}
}

// TestGCExcludesInFlightPushes races GC sweeps against artifact pushes:
// the registry's lock must prevent a sweep from collecting layer blobs
// between their Put and their manifest's existence check, so every
// pushed artifact pulls back intact.
func TestGCExcludesInFlightPushes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := r.GC(); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		tag := fmt.Sprintf("results/run-%d", i)
		if _, err := r.Push(tag, "t", map[string][]byte{"out": []byte(fmt.Sprintf("payload %d", i))}, nil); err != nil {
			t.Fatalf("push %s: %v", tag, err)
		}
		if _, err := r.Pull(tag); err != nil {
			t.Fatalf("pull %s after concurrent gc: %v", tag, err)
		}
	}
	<-done
}

// TestGCReclaimsSupersededArtifacts: when a tag moves to a new manifest,
// the old manifest and its unshared layers become unreachable and GC
// must actually reclaim them (tags are the liveness roots — manifest
// markers alone must not pin garbage forever).
func TestGCReclaimsSupersededArtifacts(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	if _, err := r.Push("results/x", "t", map[string][]byte{"a": []byte("version one")}, nil); err != nil {
		t.Fatal(err)
	}
	before := bs.Len()
	if _, err := r.Push("results/x", "t", map[string][]byte{"a": []byte("version two")}, nil); err != nil {
		t.Fatal(err)
	}
	removed, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	// The superseded manifest and its layer must both go.
	if removed != 2 {
		t.Fatalf("gc removed %d blobs, want 2 (old layer + old manifest)", removed)
	}
	if bs.Len() != before {
		t.Fatalf("store holds %d blobs after gc, want %d", bs.Len(), before)
	}
	if r.ManifestCount() != 1 {
		t.Fatalf("manifest count = %d, want 1", r.ManifestCount())
	}
	got, err := r.Pull("results/x")
	if err != nil || string(got["a"]) != "version two" {
		t.Fatalf("live artifact damaged by gc: %v %q", err, got)
	}
	// Idempotent: nothing left to sweep.
	if removed, _ := r.GC(); removed != 0 {
		t.Fatalf("second gc removed %d", removed)
	}
}

// TestGCExcludesPinnedSyncIngests: a blob delivered by a store sync has
// no ref until the peer's ref batch lands, so only its pin keeps GC
// away. Pinned it must survive a sweep; released it is garbage again.
func TestGCExcludesPinnedSyncIngests(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	d, release, err := r.IngestBlob([]byte("mid-sync payload"))
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := r.GC(); err != nil || removed != 0 {
		t.Fatalf("gc swept a pinned sync ingest: removed=%d err=%v", removed, err)
	}
	if !bs.Has(d) {
		t.Fatal("pinned blob gone after gc")
	}
	release()
	release() // idempotent
	if removed, err := r.GC(); err != nil || removed != 1 {
		t.Fatalf("gc after release: removed=%d err=%v, want 1", removed, err)
	}
	if bs.Has(d) {
		t.Fatal("released unanchored blob survived gc")
	}
}

// TestPinNesting: the same digest pinned twice needs two releases
// before GC may take it.
func TestPinNesting(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	d, rel1, err := r.IngestBlob([]byte("doubly wanted"))
	if err != nil {
		t.Fatal(err)
	}
	rel2 := r.Pin(d)
	rel1()
	if removed, _ := r.GC(); removed != 0 {
		t.Fatalf("gc ignored the remaining pin: removed=%d", removed)
	}
	rel2()
	if removed, _ := r.GC(); removed != 1 {
		t.Fatalf("gc after final release: removed=%d, want 1", removed)
	}
}

// TestReconcileRefsSkipsMissingTargets: a sync ref batch may reference
// blobs the backend lost (or that GC swept between POSTs over HTTP) —
// those names must be skipped, never applied dangling.
func TestReconcileRefsSkipsMissingTargets(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	d, err := bs.Put([]byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	absent := string(DigestOf([]byte("never stored")))
	applied, skipped, err := r.ReconcileRefs(map[string]string{
		"oras/tag/study/here":  d,
		"oras/tag/study/there": absent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || skipped != 1 {
		t.Fatalf("applied=%d skipped=%d, want 1/1", applied, skipped)
	}
	if got, ok := bs.Ref("oras/tag/study/here"); !ok || got != d {
		t.Fatalf("servable ref not applied: %q %v", got, ok)
	}
	if _, ok := bs.Ref("oras/tag/study/there"); ok {
		t.Fatal("dangling ref applied")
	}
}

// TestPutRefsAnchorsBlob: PutRefs stores the blob and points every name
// at it in one step, and the refs keep it live through GC (they are
// outside the tag namespace, so only their being refs protects it).
func TestPutRefsAnchorsBlob(t *testing.T) {
	t.Parallel()
	bs := store.NewMemory()
	r := NewRegistryWith(bs)
	d, err := r.PutRefs([]byte("one pack"), []string{"unit/a", "unit/b"})
	if err != nil {
		t.Fatal(err)
	}
	if d != DigestOf([]byte("one pack")) {
		t.Fatalf("digest %s", d)
	}
	for _, name := range []string{"unit/a", "unit/b"} {
		if got, ok := bs.Ref(name); !ok || got != string(d) {
			t.Fatalf("ref %s = %q, %v", name, got, ok)
		}
	}
	if removed, err := r.GC(); err != nil || removed != 0 || !bs.Has(string(d)) {
		t.Fatalf("gc swept a ref-anchored blob: removed=%d err=%v", removed, err)
	}
	if got := r.Tags(); len(got) != 0 {
		t.Fatalf("PutRefs created tags %v", got)
	}
}
