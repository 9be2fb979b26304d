package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"cloudhpc/internal/core"
	"cloudhpc/internal/report"
)

// shape fixes how much work one generated spec asks for: how many
// environments of each cost class, how many applications, and whether
// it runs under the default chaos plan. Which environments,
// applications and study seed fill the shape is drawn from the workload
// seed, so every seed gives a different pool with the same mix of
// problem sizes; a pool cycles through shapes in order.
type shape struct {
	k8s, cpu, gpu, apps int
	chaos               bool
}

// studyShapes is the problem-size mix of the report-warm and serve-sync
// pools: the full matrix (clean and under chaos) beside
// env and app subsets. k8s < 0 means the full matrix ("envs *", which
// includes the one environment the study could not deploy). Counts are
// per cost class because the Kubernetes CPU environments simulate an
// order of magnitude slower than the rest; drawing them at random would
// make a pool's cost depend on the seed more than on the code.
var studyShapes = []shape{
	{k8s: -1, apps: 11},
	{k8s: 2, cpu: 2, gpu: 3, apps: 11},
	{k8s: 3, cpu: 4, gpu: 6, apps: 6},
	{k8s: -1, apps: 11, chaos: true},
	{k8s: 1, cpu: 1, gpu: 2, apps: 4},
	{k8s: 2, cpu: 3, gpu: 4, apps: 8, chaos: true},
	{k8s: 1, cpu: 2, gpu: 5, apps: 11},
	{k8s: 3, cpu: 4, gpu: 0, apps: 9},
}

// studyMatrix is the environment and application universe specs are
// drawn from, read from the system's own default spec.
type studyMatrix struct {
	k8sEnvs, cpuEnvs, gpuEnvs []string // deployable environments by cost class, matrix order
	apps                      []string
}

func loadMatrix() (studyMatrix, error) {
	rs, err := core.DefaultSpec(core.DefaultSeed).Resolve()
	if err != nil {
		return studyMatrix{}, err
	}
	var m studyMatrix
	for _, e := range rs.Envs {
		switch {
		case e.Unavailable != "":
		case strings.HasSuffix(e.Key, "-gpu"):
			m.gpuEnvs = append(m.gpuEnvs, e.Key)
		case e.ContainerRuntime == "containerd":
			m.k8sEnvs = append(m.k8sEnvs, e.Key)
		default:
			m.cpuEnvs = append(m.cpuEnvs, e.Key)
		}
	}
	for _, mod := range rs.Models {
		m.apps = append(m.apps, mod.Name())
	}
	return m, nil
}

// deployable lists every deployable environment.
func (m studyMatrix) deployable() []string {
	return append(append(append([]string(nil), m.k8sEnvs...), m.cpuEnvs...), m.gpuEnvs...)
}

// pick returns n members of xs chosen by rng, kept in xs's order.
func pick(rng *rand.Rand, xs []string, n int) []string {
	keep := make([]bool, len(xs))
	for _, i := range rng.Perm(len(xs))[:n] {
		keep[i] = true
	}
	var out []string
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// specText renders one spec file. The program under test only ever
// sees this text.
func specText(seed uint64, envs, apps []string, chaos bool) string {
	var b strings.Builder
	b.WriteString("seed " + strconv.FormatUint(seed, 10) + "\n")
	b.WriteString("envs " + strings.Join(envs, " ") + "\n")
	b.WriteString("apps " + strings.Join(apps, " ") + "\n")
	if chaos {
		b.WriteString("chaos default\n")
	}
	return b.String()
}

// studySpecs draws n spec texts with distinct study seeds, cycling
// through studyShapes.
func (m studyMatrix) studySpecs(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		sh := studyShapes[i%len(studyShapes)]
		envs := []string{"*"}
		if sh.k8s >= 0 {
			envs = append(append(pick(rng, m.k8sEnvs, sh.k8s), pick(rng, m.cpuEnvs, sh.cpu)...), pick(rng, m.gpuEnvs, sh.gpu)...)
		}
		out[i] = specText(studySeed(rng), envs, pick(rng, m.apps, sh.apps), sh.chaos)
	}
	return out
}

// fullSpecs draws n full-matrix spec texts — what cmd/report runs by
// default — with distinct study seeds, every other one under the
// default chaos plan.
func (m studyMatrix) fullSpecs(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = specText(studySeed(rng), []string{"*"}, m.apps, i%2 == 1)
	}
	return out
}

// incrementalPair is one report-incremental op: base is stored first,
// full adds the environment added to it.
type incrementalPair struct {
	base, full string
	added      string
	addedUnits int // (env, app) units the added environment brings
}

// incrementalSpecs draws n (base, full) pairs over the whole deployable
// matrix: every full spec is 13 environments × 11 applications, every
// base lacks one deployable environment, taken from each cost class in
// turn, and every other pair runs under the default chaos plan.
func (m studyMatrix) incrementalSpecs(rng *rand.Rand, n int) []incrementalPair {
	all := m.deployable()
	classes := [][]string{m.k8sEnvs, m.cpuEnvs, m.gpuEnvs}
	out := make([]incrementalPair, n)
	for i := range out {
		seed := studySeed(rng)
		chaos := i%2 == 1
		class := classes[i%len(classes)]
		added := class[rng.Intn(len(class))]
		var base []string
		for _, e := range all {
			if e != added {
				base = append(base, e)
			}
		}
		out[i] = incrementalPair{
			base:       specText(seed, base, m.apps, chaos),
			full:       specText(seed, all, m.apps, chaos),
			added:      added,
			addedUnits: len(m.apps),
		}
	}
	return out
}

// studySeed draws a study seed. Distinct seeds keep every generated spec
// (and every unit inside it) distinct from every other.
func studySeed(rng *rand.Rand) uint64 { return 1 + uint64(rng.Int63n(1<<40)) }

// reportSHA runs spec through r and hashes the rendered report.
func reportSHA(ctx context.Context, r *core.Runner, text string) ([32]byte, error) {
	spec, err := core.ParseSpec(text)
	if err != nil {
		return [32]byte{}, err
	}
	res, err := r.Run(ctx, spec)
	if err != nil {
		return [32]byte{}, err
	}
	md, err := report.Markdown(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256([]byte(md)), nil
}

// checkGolden recomputes the seed-2025 default study's run and trace
// digests in the form internal/core's golden test pins them and
// compares both against the committed golden file.
func checkGolden(ctx context.Context, goldenPath string) error {
	core.FlushCachedRuns()
	defer core.FlushCachedRuns()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	spec, err := core.ParseSpec("seed 2025\n")
	if err != nil {
		return err
	}
	res, err := (&core.Runner{}).Run(ctx, spec)
	if err != nil {
		return fmt.Errorf("golden study: %w", err)
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var runs strings.Builder
	for _, r := range res.Runs {
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		fmt.Fprintf(&runs, "%s|%s|%d|%d|%s|%s|%d|%d|%s|%q\n",
			r.EnvKey, r.App, r.Nodes, r.Iter, g(r.FOM), g(r.CostUSD),
			r.Wall.Nanoseconds(), r.Hookup.Nanoseconds(), r.Unit, errMsg)
	}
	got := map[string]string{
		"run-digest":   fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(runs.String()))),
		"trace-digest": fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(res.Log.Render()))),
	}
	for key, digest := range got {
		line := key + ": " + digest + "\n"
		if !strings.Contains(string(want), line) {
			return fmt.Errorf("golden: %s is %s, not the value in %s", key, digest, goldenPath)
		}
	}
	return nil
}
