package dataset_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/dataset"
)

// packUnits is a two-unit fixture: metadata plus records per key.
func packUnits() map[string]struct {
	meta dataset.UnitMeta
	recs []dataset.Record
} {
	return map[string]struct {
		meta dataset.UnitMeta
		recs []dataset.Record
	}{
		"bbb222": {
			dataset.UnitMeta{Version: 2, Key: "bbb222", Seed: 2025, Env: "aws-eks-cpu", App: "lammps", Iterations: 5},
			[]dataset.Record{
				{Env: "aws-eks-cpu", App: "lammps", Nodes: 32, Iter: 0, FOM: 3.5, Unit: "M-atom steps/s", Wall: time.Minute, Hookup: 9 * time.Second},
				{Env: "aws-eks-cpu", App: "lammps", Nodes: 32, Iter: 1, FOM: 3.6, Unit: "M-atom steps/s", Wall: time.Minute, Hookup: 9 * time.Second},
			},
		},
		"aaa111": {
			dataset.UnitMeta{Version: 2, Key: "aaa111", Seed: 2025, Env: "aws-eks-cpu", App: "osu", Iterations: 5},
			[]dataset.Record{
				{Env: "aws-eks-cpu", App: "osu", Nodes: 32, Iter: 0, Error: "apps: application not supported"},
			},
		},
	}
}

// buildPack encodes the named fixture units into a pack.
func buildPack(t *testing.T, keys ...string) []byte {
	t.Helper()
	units := packUnits()
	secs := map[string][]byte{}
	for _, k := range keys {
		u := units[k]
		data, err := dataset.MarshalUnitSection(u.meta, u.recs)
		if err != nil {
			t.Fatal(err)
		}
		secs[k] = data
	}
	pack, err := dataset.MarshalUnitPack(secs)
	if err != nil {
		t.Fatal(err)
	}
	return pack
}

// TestUnitPackRoundTrip: every unit decodes back to its metadata (with
// the record count filled in) and records, the index lists the keys in
// order, and the pack bytes are the same on every build although map
// iteration order is not — the property that makes a study's pack
// identical at every worker count.
func TestUnitPackRoundTrip(t *testing.T) {
	t.Parallel()
	pack := buildPack(t, "bbb222", "aaa111")
	for i := 0; i < 10; i++ {
		if other := buildPack(t, "aaa111", "bbb222"); !bytes.Equal(pack, other) {
			t.Fatalf("pack bytes vary between builds:\n%s\nvs\n%s", pack, other)
		}
	}
	p, err := dataset.ParseUnitPack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Keys(); !reflect.DeepEqual(got, []string{"aaa111", "bbb222"}) {
		t.Fatalf("keys = %v", got)
	}
	for key, u := range packUnits() {
		meta, recs, err := p.Unit(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want := u.meta
		want.Records = len(u.recs)
		if meta != want || !reflect.DeepEqual(recs, u.recs) {
			t.Fatalf("%s round trip drifted: %+v %+v", key, meta, recs)
		}
	}

	// A tampered record count is detected when the unit drains.
	tampered := bytes.Replace(pack, []byte(`"records":2`), []byte(`"records":3`), 1)
	if p, err := dataset.ParseUnitPack(tampered); err != nil {
		t.Fatalf("same-length edit broke the index: %v", err)
	} else if _, _, err := p.Unit("bbb222"); err == nil {
		t.Fatal("record-count mismatch accepted")
	}
}

// TestUnitPackTruncatedIndex: a pack cut inside its index line, or with
// an index that is not the pack's JSON, fails to parse.
func TestUnitPackTruncatedIndex(t *testing.T) {
	t.Parallel()
	pack := buildPack(t, "aaa111", "bbb222")
	nl := bytes.IndexByte(pack, '\n')
	for name, data := range map[string][]byte{
		"empty":         nil,
		"cut in index":  pack[:nl/2],
		"index no body": pack[:nl],
		"not json":      append([]byte("not an index\n"), pack[nl+1:]...),
		"wrong version": bytes.Replace(pack, []byte(`"version":1`), []byte(`"version":9`), 1),
	} {
		if _, err := dataset.ParseUnitPack(data); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// TestUnitPackOutOfRangeSection: an index whose sections run past the
// body, leave a gap or trailing bytes, or are not a [offset, len] pair
// fails to parse, as does a body cut short.
func TestUnitPackOutOfRangeSection(t *testing.T) {
	t.Parallel()
	pack := buildPack(t, "aaa111", "bbb222")
	nl := bytes.IndexByte(pack, '\n')
	index, body := string(pack[:nl]), pack[nl+1:]
	withIndex := func(idx string) []byte { return append([]byte(idx+"\n"), body...) }
	cases := map[string][]byte{
		"body cut short":  pack[:len(pack)-1],
		"trailing byte":   append(append([]byte{}, pack...), 'x'),
		"past the body":   withIndex(`{"version":1,"units":{"aaa111":[0,99999]}}`),
		"gap":             withIndex(`{"version":1,"units":{"aaa111":[1,10]}}`),
		"not a pair":      withIndex(strings.Replace(index, `"aaa111":[0,`, `"aaa111":[0,0,`, 1)),
		"negative offset": withIndex(strings.Replace(index, `"aaa111":[0,`, `"aaa111":[-1,`, 1)),
	}
	for name, data := range cases {
		if _, err := dataset.ParseUnitPack(data); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// TestUnitPackMissingKey: a key the index does not list is
// ErrUnitNotInPack, never a neighbour's section.
func TestUnitPackMissingKey(t *testing.T) {
	t.Parallel()
	p, err := dataset.ParseUnitPack(buildPack(t, "aaa111"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Section("bbb222"); !errors.Is(err, dataset.ErrUnitNotInPack) {
		t.Fatalf("Section(missing) = %v, want ErrUnitNotInPack", err)
	}
	if _, _, err := p.Unit("bbb222"); !errors.Is(err, dataset.ErrUnitNotInPack) {
		t.Fatalf("Unit(missing) = %v, want ErrUnitNotInPack", err)
	}
}
