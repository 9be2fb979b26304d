// Package oras implements the content-addressable OCI registry the study
// leaned on: container images were "deployed to the registry alongside the
// repository", and job output was "saved to file and pushed to a registry"
// via ORAS (paper §2.7, §2.9 — the release holds 25,541 run datasets).
//
// The model follows the OCI distribution spec's skeleton: blobs are
// addressed by SHA-256 digest, manifests reference blob descriptors plus
// an artifact type, and tags name manifests. Pushing identical content
// twice deduplicates, and every pull verifies digests end to end.
//
// Storage is pluggable: a Registry keeps *all* of its state — blobs,
// manifests (as canonical-JSON blobs), and tags (as refs) — in a
// store.BlobStore. NewRegistry uses the in-memory store (tests, transient
// runs); NewRegistryWith accepts any backend, and over store.Disk the
// registry is durable: a re-opened store yields a registry that resolves
// every previously pushed tag, which is what cmd/archive and the
// persistent result store build on.
package oras

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cloudhpc/internal/store"
)

// Digest is a "sha256:<hex>" content address.
type Digest string

// DigestOf computes the canonical digest of a byte string.
func DigestOf(data []byte) Digest {
	return Digest(store.DigestOf(data))
}

// Descriptor points at a blob: digest, size, and media type.
type Descriptor struct {
	MediaType string `json:"mediaType"`
	Digest    Digest `json:"digest"`
	Size      int64  `json:"size"`
	// Annotations carry ORAS-style metadata (file name, env, app...).
	Annotations map[string]string `json:"annotations,omitempty"`
}

// Manifest ties descriptors together under an artifact type.
type Manifest struct {
	ArtifactType string            `json:"artifactType"`
	Layers       []Descriptor      `json:"layers"`
	Annotations  map[string]string `json:"annotations,omitempty"`
}

// encode renders the manifest's canonical form: JSON with struct fields
// in declaration order and map keys sorted (encoding/json's map
// behaviour), so identical manifests always serialize identically. The
// encoding doubles as the stored representation, making the manifest its
// own content-addressed blob.
func (m Manifest) encode() ([]byte, error) {
	return json.Marshal(m)
}

// digest computes the manifest's own address from its canonical encoding.
func (m Manifest) digest() (Digest, error) {
	data, err := m.encode()
	if err != nil {
		return "", err
	}
	return DigestOf(data), nil
}

// Registry errors.
var (
	ErrBlobUnknown     = errors.New("oras: blob unknown to registry")
	ErrManifestUnknown = errors.New("oras: manifest unknown")
	ErrTagUnknown      = errors.New("oras: tag unknown")
	ErrDigestMismatch  = errors.New("oras: content does not match digest")
)

// Ref-name prefixes inside the blob store. Manifests are marked with a
// ref so the registry can tell them apart from content blobs without a
// separate index; tags are refs from name to manifest digest.
const (
	manifestRefPrefix = "oras/manifest/"
	tagRefPrefix      = "oras/tag/"
)

// Registry is a content-addressed OCI registry over a pluggable blob
// store. Safe for concurrent use within one process: the backends
// serialize their own state, concurrent pushes are idempotent, and the
// registry's own lock makes GC mutually exclusive with reads and with
// the one-shot Push verb (a sweep between a layer's Put and its
// manifest's existence check could otherwise collect blobs nothing
// references *yet*). Hand-composing PushBlob → PushManifest → Tag holds
// the lock only per call, so do not run a composed push concurrently
// with GC. Sharing one backend directory between processes is safe for
// pushes but not for GC.
type Registry struct {
	// mu is held shared by every push/read operation and exclusively by
	// GC: pushes may interleave freely with each other, never with a
	// sweep.
	mu    sync.RWMutex
	blobs store.BlobStore

	// pins are digests GC must treat as live even though no tag reaches
	// them yet: blobs landed by a store-sync ingest whose refs have not
	// arrived. An in-flight Push is protected by mu; a sync spans many
	// RPC round trips and cannot hold a lock that long, so it pins
	// instead (see Pin).
	pinMu sync.Mutex
	pins  map[string]int
}

// NewRegistry returns an empty registry over an in-memory store.
func NewRegistry() *Registry {
	return NewRegistryWith(store.NewMemory())
}

// NewRegistryWith returns a registry over the given backend. Over a
// store.Disk backend the registry is persistent: every blob, manifest,
// and tag previously pushed into the same directory is visible.
func NewRegistryWith(bs store.BlobStore) *Registry {
	return &Registry{blobs: bs}
}

// Backend returns the registry's blob store.
func (r *Registry) Backend() store.BlobStore { return r.blobs }

// PushBlob stores content and returns its descriptor. Identical content
// deduplicates to the same digest.
func (r *Registry) PushBlob(mediaType string, data []byte) (Descriptor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, err := r.blobs.Put(data)
	if err != nil {
		return Descriptor{}, err
	}
	return Descriptor{MediaType: mediaType, Digest: Digest(d), Size: int64(len(data))}, nil
}

// FetchBlob retrieves and verifies a blob.
func (r *Registry) FetchBlob(d Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fetchBlobLocked(d)
}

func (r *Registry) fetchBlobLocked(d Digest) ([]byte, error) {
	data, err := r.blobs.Get(string(d))
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrBadDigest):
		return nil, fmt.Errorf("%w: %s", ErrBlobUnknown, d)
	case errors.Is(err, store.ErrCorrupt):
		return nil, fmt.Errorf("%w: %s", ErrDigestMismatch, d)
	case err != nil:
		return nil, err
	}
	return data, nil
}

// PushManifest stores a manifest after checking every referenced layer
// exists, and returns the manifest digest.
func (r *Registry) PushManifest(m Manifest) (Digest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pushManifestLocked(m)
}

func (r *Registry) pushManifestLocked(m Manifest) (Digest, error) {
	for _, l := range m.Layers {
		if !r.blobs.Has(string(l.Digest)) {
			return "", fmt.Errorf("%w: manifest references %s", ErrBlobUnknown, l.Digest)
		}
	}
	data, err := m.encode()
	if err != nil {
		return "", err
	}
	dig, err := r.blobs.Put(data)
	if err != nil {
		return "", err
	}
	if err := r.blobs.SetRef(manifestRefPrefix+dig, dig); err != nil {
		return "", err
	}
	return Digest(dig), nil
}

// Tag points a name at a manifest digest.
func (r *Registry) Tag(name string, d Digest) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tagLocked(name, d)
}

func (r *Registry) tagLocked(name string, d Digest) error {
	if _, ok := r.blobs.Ref(manifestRefPrefix + string(d)); !ok {
		return fmt.Errorf("%w: %s", ErrManifestUnknown, d)
	}
	return r.blobs.SetRef(tagRefPrefix+name, string(d))
}

// Resolve returns the manifest a tag points at.
func (r *Registry) Resolve(name string) (Manifest, Digest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resolveLocked(name)
}

func (r *Registry) resolveLocked(name string) (Manifest, Digest, error) {
	dig, ok := r.blobs.Ref(tagRefPrefix + name)
	if !ok {
		return Manifest{}, "", fmt.Errorf("%w: %q", ErrTagUnknown, name)
	}
	m, err := r.manifestAt(Digest(dig))
	if err != nil {
		return Manifest{}, "", err
	}
	return m, Digest(dig), nil
}

// manifestAt fetches and decodes a stored manifest blob.
func (r *Registry) manifestAt(d Digest) (Manifest, error) {
	data, err := r.blobs.Get(string(d))
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrBadDigest):
		return Manifest{}, fmt.Errorf("%w: %s", ErrManifestUnknown, d)
	case errors.Is(err, store.ErrCorrupt):
		return Manifest{}, fmt.Errorf("%w: manifest %s", ErrDigestMismatch, d)
	case err != nil:
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("oras: decoding manifest %s: %w", d, err)
	}
	return m, nil
}

// Tags lists all tag names, sorted.
func (r *Registry) Tags() []string {
	var out []string
	for _, ref := range r.blobs.Refs() {
		if name, ok := strings.CutPrefix(ref, tagRefPrefix); ok {
			out = append(out, name)
		}
	}
	return out // Refs() is sorted and the prefix is constant, so out is too
}

// BlobCount reports the number of content blobs (dedup visible here);
// manifest blobs are accounted separately by ManifestCount.
func (r *Registry) BlobCount() int {
	return r.blobs.Len() - r.ManifestCount()
}

// ManifestCount reports the number of stored manifests.
func (r *Registry) ManifestCount() int {
	n := 0
	for _, ref := range r.blobs.Refs() {
		if strings.HasPrefix(ref, manifestRefPrefix) {
			n++
		}
	}
	return n
}

// LiveDigests returns the digests reachable from the registry's tags:
// every tagged manifest blob plus every layer those manifests reference.
// Tags are the roots — a manifest no tag points at anymore (a bundle
// whose tag moved to a newer push) is garbage, which is exactly what GC
// exists to reclaim. Anything else in the backend also counts as
// garbage here; a caller sharing the store with other users must union
// in their live sets.
func (r *Registry) LiveDigests() (map[string]bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.liveDigestsLocked()
}

func (r *Registry) liveDigestsLocked() (map[string]bool, error) {
	live := map[string]bool{}
	for _, ref := range r.blobs.Refs() {
		if !strings.HasPrefix(ref, tagRefPrefix) {
			continue
		}
		dig, ok := r.blobs.Ref(ref)
		if !ok {
			continue
		}
		live[dig] = true
		m, err := r.manifestAt(Digest(dig))
		if err != nil {
			continue // corrupt manifest: keep the blob, skip its layers
		}
		for _, l := range m.Layers {
			live[string(l.Digest)] = true
		}
	}
	return live, nil
}

// SyncInventory snapshots the backend's sync manifest (see
// store.TakeInventory) under the registry's shared lock, so a
// concurrent GC cannot tear the snapshot between the blob scan and the
// ref filter.
func (r *Registry) SyncInventory() store.Inventory {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return store.TakeInventory(r.blobs)
}

// IngestBlob stores sync-delivered bytes and pins the resulting digest
// until release runs. Put and Pin happen under the registry's shared
// lock, so a GC sweep can never land between them — the ingested blob
// is continuously protected from the moment it exists until its refs
// arrive (or the ingest is abandoned and release runs anyway).
func (r *Registry) IngestBlob(data []byte) (digest string, release func(), err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, err := r.blobs.Put(data)
	if err != nil {
		return "", nil, err
	}
	return d, r.Pin(d), nil
}

// PutRefs stores one blob and points every given backend ref name at it
// in one ref batch. Put and SetRefs run under the registry's shared
// lock, so a GC sweep can never land between the blob's arrival and the
// refs that keep it live — the same protection Push gives a manifest
// and its tag. The names are raw backend refs, outside the oras/
// prefixes.
func (r *Registry) PutRefs(data []byte, names []string) (Digest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, err := r.blobs.Put(data)
	if err != nil {
		return "", err
	}
	refs := make(map[string]string, len(names))
	for _, n := range names {
		refs[n] = d
	}
	if err := r.blobs.SetRefs(refs); err != nil {
		return "", err
	}
	return Digest(d), nil
}

// ReconcileRefs applies a sync ref batch last-writer-wins, skipping any
// name whose target blob the backend does not hold — a ref must never
// outrun its content. It runs under the registry's shared lock, so the
// presence check and the application cannot interleave with a GC sweep.
func (r *Registry) ReconcileRefs(refs map[string]string) (applied, skipped int, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	apply := make(map[string]string, len(refs))
	for name, d := range refs {
		if r.blobs.Has(d) {
			apply[name] = d
		} else {
			skipped++
		}
	}
	if len(apply) == 0 {
		return 0, skipped, nil
	}
	if err := r.blobs.SetRefs(apply); err != nil {
		return 0, skipped, err
	}
	return len(apply), skipped, nil
}

// Pin marks digests as live for GC until the returned release runs —
// how a store-sync ingest keeps just-transferred blobs alive across the
// window between their Put and the ref batch that anchors them, the
// same protection an in-flight Push gets from the registry lock.
// Pins nest (the same digest pinned twice needs two releases); release
// is idempotent.
func (r *Registry) Pin(digests ...string) (release func()) {
	r.pinMu.Lock()
	if r.pins == nil {
		r.pins = make(map[string]int)
	}
	for _, d := range digests {
		r.pins[d]++
	}
	r.pinMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.pinMu.Lock()
			for _, d := range digests {
				if r.pins[d]--; r.pins[d] <= 0 {
					delete(r.pins, d)
				}
			}
			r.pinMu.Unlock()
		})
	}
}

// pinned snapshots the currently pinned digests.
func (r *Registry) pinned() map[string]bool {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	out := make(map[string]bool, len(r.pins))
	for d := range r.pins {
		out[d] = true
	}
	return out
}

// GC reclaims everything no tag reaches: it drops the manifest markers
// of untagged manifests (so the refs stop pinning their blobs) and then
// sweeps the unreachable blobs. The exclusive lock makes the sweep
// mutually exclusive with in-flight pushes and reads — a push's layers
// cannot be collected between their Put and the manifest's existence
// check, and a Pull cannot fetch a manifest mid-sweep. Pinned digests
// (in-flight sync ingests, whose refs have not landed yet) survive the
// sweep exactly like tagged content. Returns how many blobs were
// removed.
func (r *Registry) GC() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live, err := r.liveDigestsLocked()
	if err != nil {
		return 0, err
	}
	for d := range r.pinned() {
		live[d] = true
	}
	var stale []string
	for _, ref := range r.blobs.Refs() {
		if dig, ok := strings.CutPrefix(ref, manifestRefPrefix); ok && !live[dig] {
			stale = append(stale, ref)
		}
	}
	if err := r.blobs.DeleteRefs(stale); err != nil {
		return 0, err
	}
	return r.blobs.GC(live)
}

// Push is the ORAS convenience verb: store files as layers under one
// manifest and tag it. Files map name → content; names land in layer
// annotations like `oras push` does, in sorted name order so the layer
// list — and therefore the manifest digest — is deterministic.
func (r *Registry) Push(tag, artifactType string, files map[string][]byte, annotations map[string]string) (Digest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	m := Manifest{ArtifactType: artifactType, Annotations: annotations}
	for _, n := range names {
		dig, err := r.blobs.Put(files[n])
		if err != nil {
			return "", err
		}
		m.Layers = append(m.Layers, Descriptor{
			MediaType: "application/octet-stream", Digest: Digest(dig), Size: int64(len(files[n])),
			Annotations: map[string]string{"org.opencontainers.image.title": n},
		})
	}
	// One batched ref update covers the manifest marker and the tag, so
	// an artifact push persists the backing index once, not twice.
	data, err := m.encode()
	if err != nil {
		return "", err
	}
	dig, err := r.blobs.Put(data)
	if err != nil {
		return "", err
	}
	if err := r.blobs.SetRefs(map[string]string{
		manifestRefPrefix + dig: dig,
		tagRefPrefix + tag:      dig,
	}); err != nil {
		return "", err
	}
	return Digest(dig), nil
}

// Pull fetches all files of a tagged artifact.
func (r *Registry) Pull(tag string) (map[string][]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, _, err := r.resolveLocked(tag)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(m.Layers))
	for i, l := range m.Layers {
		data, err := r.fetchBlobLocked(l.Digest)
		if err != nil {
			return nil, err
		}
		name := l.Annotations["org.opencontainers.image.title"]
		if name == "" {
			name = fmt.Sprintf("layer-%d", i)
		}
		out[name] = data
	}
	return out, nil
}
