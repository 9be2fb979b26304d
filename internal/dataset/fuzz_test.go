package dataset

import "testing"

// FuzzUnmarshalJSONL hardens the archive reader: arbitrary bytes must
// never panic, and whatever parses must re-marshal.
func FuzzUnmarshalJSONL(f *testing.F) {
	f.Add([]byte(`{"env":"e","app":"a","fom":1.5}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"env":"e"}` + "\n" + `{"app":"b"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := UnmarshalJSONL(data)
		if err != nil {
			return
		}
		if _, err := MarshalJSONL(recs); err != nil {
			t.Fatalf("parsed records do not re-marshal: %v", err)
		}
	})
}

// FuzzUnitPack hardens the unit pack reader — a wire boundary, since
// packs are read back from disk and arrive from sync peers. Arbitrary
// bytes must never panic; whatever parses must hold only in-range
// sections, and every unit that decodes must survive a re-pack with the
// same metadata and records.
func FuzzUnitPack(f *testing.F) {
	sec, err := MarshalUnitSection(UnitMeta{Version: 2, Key: "k1", Env: "e", App: "a", Iterations: 1},
		[]Record{{Env: "e", App: "a", Nodes: 2, FOM: 1.5, Unit: "u"}})
	if err != nil {
		f.Fatal(err)
	}
	pack, err := MarshalUnitPack(map[string][]byte{"k1": sec, "k0": []byte("{}\n")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pack)
	f.Add([]byte(`{"version":1,"units":{}}` + "\n"))
	f.Add([]byte(`{"version":1,"units":{"k":[0,3]}}` + "\n{}\n"))
	f.Add([]byte(`{"version":1,"units":{"k":[0,18446744073709551615]}}` + "\n{}\n"))
	f.Add([]byte(`{"version":1,"units":{"k":[0,2]}}` + "\n{}"))
	f.Add([]byte(`{"version":1,"units":{"k":[0,12]}}` + "\n" + `{"records":-5}`))
	f.Add([]byte("no index"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseUnitPack(data)
		if err != nil {
			return
		}
		again := map[string][]byte{}
		decoded := map[string][]Record{}
		for _, key := range p.Keys() {
			if _, _, err := p.Section(key); err != nil {
				continue
			}
			meta, recs, err := p.Unit(key)
			if err != nil {
				continue
			}
			if len(recs) != meta.Records {
				t.Fatalf("unit %q decoded %d records, metadata says %d", key, len(recs), meta.Records)
			}
			sec, err := MarshalUnitSection(meta, recs)
			if err != nil {
				t.Fatalf("decoded unit %q does not re-encode: %v", key, err)
			}
			again[key] = sec
			decoded[key] = recs
		}
		if _, _, err := p.Section("\x00 not a key"); err == nil {
			t.Fatal("a key outside the index resolved")
		}
		repacked, err := MarshalUnitPack(again)
		if err != nil {
			t.Fatalf("re-pack: %v", err)
		}
		q, err := ParseUnitPack(repacked)
		if err != nil {
			t.Fatalf("re-packed units do not parse: %v", err)
		}
		for key, recs := range decoded {
			_, got, err := q.Unit(key)
			if err != nil || len(got) != len(recs) {
				t.Fatalf("unit %q did not survive a re-pack: %v", key, err)
			}
		}
	})
}
