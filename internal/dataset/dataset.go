// Package dataset defines the archived record forms of the study and
// their codecs: one JSON-lines file per (environment, application),
// pushed to an OCI registry as ORAS artifacts (paper §2.9 — "Job output
// was saved to file and pushed to a registry"; the release totals 25,541
// datasets).
//
// The package is deliberately free of study semantics: it knows bytes,
// records, and registries, nothing about how a study executes. The
// conversions between live core.RunRecord values and archived Records
// live in package core (Results.Records, RunRecord.Record), which lets
// core's persistent result store reuse these same wire forms — runs,
// and the unit pack of per-unit draw records (pack.go) — without an
// import cycle.
package dataset

import (
	"fmt"
	"sort"
	"time"

	"cloudhpc/internal/jsonl"
	"cloudhpc/internal/oras"
)

// Record is the archived form of one run. Errors flatten to strings so
// the archive round-trips through JSON. The same form serializes a
// stored (env, app) unit's precomputed draws: there Wall and Hookup are
// the drawn model wall time and hookup draw, and CostUSD is zero (cost
// is lifecycle accounting, not a draw).
type Record struct {
	Env     string        `json:"env"`
	App     string        `json:"app"`
	Nodes   int           `json:"nodes"`
	Iter    int           `json:"iter"`
	FOM     float64       `json:"fom"`
	Unit    string        `json:"unit"`
	Error   string        `json:"error,omitempty"`
	Wall    time.Duration `json:"wall_ns"`
	Hookup  time.Duration `json:"hookup_ns"`
	CostUSD float64       `json:"cost_usd"`
}

// MarshalJSONL encodes records as JSON lines.
func MarshalJSONL(recs []Record) ([]byte, error) {
	return jsonl.Marshal(recs)
}

// UnmarshalJSONL decodes JSON lines into records.
func UnmarshalJSONL(data []byte) ([]Record, error) {
	return jsonl.Unmarshal[Record]("dataset", data)
}

// Artifact types in the registry.
const (
	// ArtifactType marks study result datasets.
	ArtifactType = "application/vnd.cloudhpc.study.results.v1"
	// StudyBundleType marks a complete serialized study dataset (runs,
	// trace, billing charges, audits) in the persistent result store.
	StudyBundleType = "application/vnd.cloudhpc.study.bundle.v1"
)

// Push archives run records into the registry, one artifact per
// (environment, application), tagged "results/<env>/<app>". Artifacts
// are pushed in sorted tag order so the registry's blob and manifest
// insertion sequence — not just the returned tag list — is identical run
// to run; a content-addressed archive should never depend on Go map
// iteration order. It returns the tags pushed, sorted.
func Push(reg *oras.Registry, recs []Record) ([]string, error) {
	groups := map[string][]Record{}
	for _, r := range recs {
		key := r.Env + "/" + r.App
		groups[key] = append(groups[key], r)
	}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	tags := make([]string, 0, len(keys))
	for _, key := range keys {
		data, err := MarshalJSONL(groups[key])
		if err != nil {
			return nil, err
		}
		tag := "results/" + key
		_, err = reg.Push(tag, ArtifactType,
			map[string][]byte{"runs.jsonl": data},
			map[string]string{"cloudhpc.records": fmt.Sprint(len(groups[key]))})
		if err != nil {
			return nil, err
		}
		tags = append(tags, tag)
	}
	return tags, nil
}

// Load retrieves one archived artifact's records.
func Load(reg *oras.Registry, tag string) ([]Record, error) {
	files, err := reg.Pull(tag)
	if err != nil {
		return nil, err
	}
	data, ok := files["runs.jsonl"]
	if !ok {
		return nil, fmt.Errorf("dataset: artifact %q has no runs.jsonl", tag)
	}
	return UnmarshalJSONL(data)
}
