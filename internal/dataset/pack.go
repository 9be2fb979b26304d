package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"cloudhpc/internal/jsonl"
)

// A unit pack is the stored form of the (env, app) units one study
// computed: a single content-addressed blob instead of one artifact per
// unit. Its layout:
//
//	{"version":1,"units":{"<key>":[off,len],...}}   the index line
//	<section of the smallest key>                   the body
//	<section of the next key>
//	...
//
// A section is the unit's UnitMeta as one JSON line followed by its draw
// records as JSON lines. Offsets count from the first body byte.
// Sections appear in key order and tile the body exactly, with no gap,
// overlap or trailing byte, so a pack's bytes depend only on the set of
// units it holds — never on the order in which workers finished them.

// unitPackVersion is the pack layout version in the index line; a pack
// of any other version fails to parse.
const unitPackVersion = 1

// ErrUnitNotInPack reports a key the pack's index does not list.
var ErrUnitNotInPack = errors.New("dataset: unit not in pack")

// UnitMeta is the metadata line of a pack section: the sub-hash key the
// unit is stored under, and the inputs that key covers, so a section is
// self-describing without the spec that produced it.
type UnitMeta struct {
	Version    int    `json:"version"`
	Key        string `json:"key"`
	Seed       uint64 `json:"seed"`
	Env        string `json:"env"`
	App        string `json:"app"`
	Iterations int    `json:"iterations"`
	Records    int    `json:"records"`
}

// packIndex is the pack's first line.
type packIndex struct {
	Version int                 `json:"version"`
	Units   map[string][]uint64 `json:"units"`
}

// MarshalUnitSection encodes one unit's pack section: the metadata line
// (with Records set to len(recs)) followed by the record lines.
func MarshalUnitSection(meta UnitMeta, recs []Record) ([]byte, error) {
	meta.Records = len(recs)
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	rj, err := MarshalJSONL(recs)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(mj)+1+len(rj))
	out = append(append(append(out, mj...), '\n'), rj...)
	return out, nil
}

// MarshalUnitPack assembles encoded sections, keyed by unit key, into a
// pack.
func MarshalUnitPack(sections map[string][]byte) ([]byte, error) {
	keys := make([]string, 0, len(sections))
	for k := range sections {
		if k == "" {
			return nil, fmt.Errorf("dataset: pack section with an empty key")
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	idx := packIndex{Version: unitPackVersion, Units: make(map[string][]uint64, len(keys))}
	var body uint64
	for _, k := range keys {
		idx.Units[k] = []uint64{body, uint64(len(sections[k]))}
		body += uint64(len(sections[k]))
	}
	ij, err := json.Marshal(idx)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(ij)+1+int(body))
	out = append(append(out, ij...), '\n')
	for _, k := range keys {
		out = append(out, sections[k]...)
	}
	return out, nil
}

// UnitPack is a parsed pack: its index, validated against the body, and
// the body itself. Sections decode on demand; the pack keeps a reference
// to the bytes it was parsed from, which the caller must not mutate.
type UnitPack struct {
	body  []byte
	index map[string][]uint64
}

// ParseUnitPack reads a pack's index line and checks that its sections
// tile the body exactly in key order. It decodes no section.
func ParseUnitPack(data []byte) (*UnitPack, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("dataset: unit pack has no index line")
	}
	var idx packIndex
	if err := json.Unmarshal(data[:nl], &idx); err != nil {
		return nil, fmt.Errorf("dataset: unit pack index: %w", err)
	}
	if idx.Version != unitPackVersion {
		return nil, fmt.Errorf("dataset: unit pack version %d, want %d", idx.Version, unitPackVersion)
	}
	p := &UnitPack{body: data[nl+1:], index: idx.Units}
	var next uint64
	for _, key := range p.Keys() {
		span := p.index[key]
		if key == "" || len(span) != 2 {
			return nil, fmt.Errorf("dataset: unit pack index entry %q malformed", key)
		}
		if span[0] != next || span[1] > uint64(len(p.body))-next {
			return nil, fmt.Errorf("dataset: unit pack section %s at [%d,+%d] does not follow at %d within %d body bytes",
				key, span[0], span[1], next, len(p.body))
		}
		next += span[1]
	}
	if next != uint64(len(p.body)) {
		return nil, fmt.Errorf("dataset: unit pack sections cover %d of %d body bytes", next, len(p.body))
	}
	return p, nil
}

// Keys returns the pack's unit keys, sorted.
func (p *UnitPack) Keys() []string {
	keys := make([]string, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Section decodes one unit's metadata line and returns a streaming
// cursor over its records, so a consumer can validate and convert each
// record in one pass. The metadata's record count is not checked here —
// the cursor has not seen the records yet; Unit checks it as it drains.
func (p *UnitPack) Section(key string) (UnitMeta, *jsonl.Decoder[Record], error) {
	meta, recs, err := p.section(key)
	if err != nil {
		return meta, nil, err
	}
	return meta, jsonl.NewDecoder[Record]("dataset", recs), nil
}

// Unit decodes one unit's metadata and records, validating the record
// count against the metadata.
func (p *UnitPack) Unit(key string) (UnitMeta, []Record, error) {
	meta, data, err := p.section(key)
	if err != nil {
		return meta, nil, err
	}
	recs, err := UnmarshalJSONL(data)
	if err != nil {
		return meta, nil, err
	}
	if len(recs) != meta.Records {
		return meta, nil, fmt.Errorf("dataset: unit %s/%s holds %d records, metadata says %d",
			meta.Env, meta.App, len(recs), meta.Records)
	}
	return meta, recs, nil
}

// section splits one unit's section into its decoded metadata and its
// record lines.
func (p *UnitPack) section(key string) (UnitMeta, []byte, error) {
	var meta UnitMeta
	span, ok := p.index[key]
	if !ok {
		return meta, nil, fmt.Errorf("%w: %s", ErrUnitNotInPack, key)
	}
	sec := p.body[span[0] : span[0]+span[1]]
	nl := bytes.IndexByte(sec, '\n')
	if nl < 0 {
		return meta, nil, fmt.Errorf("dataset: unit %s: section has no metadata line", key)
	}
	if err := json.Unmarshal(sec[:nl], &meta); err != nil {
		return meta, nil, fmt.Errorf("dataset: unit %s metadata: %w", key, err)
	}
	return meta, sec[nl+1:], nil
}
