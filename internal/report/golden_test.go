package report

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"cloudhpc/internal/core"
)

// goldenSpecs are the study specs whose rendered reports are pinned by
// sha256 in testdata/report_sha256.txt. "default" is cmd/report's default
// study; "mixed" covers the GPU x-axis (units, not nodes), a scales
// override, the unavailable environment and a chaotic run.
var goldenSpecs = map[string]string{
	"default": "seed 2025\n",
	"mixed": "seed 99\n" +
		"envs onprem-b-gpu aws-eks-gpu azure-aks-gpu aws-parallelcluster-gpu google-gke-cpu onprem-a-cpu\n" +
		"apps *\n" +
		"scales 2 4 8\n" +
		"chaos default\n",
}

// readReportGoldens parses testdata/report_sha256.txt: one
// "<name> <sha256>" pair per line.
func readReportGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/report_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("report_sha256.txt: malformed line %q", sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMarkdownGoldenSHA256 pins the rendered report bytes: any change to
// the renderer or to the aggregations behind it that moves a byte fails
// here.
func TestMarkdownGoldenSHA256(t *testing.T) {
	want := readReportGoldens(t)
	if len(want) != len(goldenSpecs) {
		t.Fatalf("report_sha256.txt has %d entries, want %d", len(want), len(goldenSpecs))
	}
	for name, text := range goldenSpecs {
		t.Run(name, func(t *testing.T) {
			spec, err := core.ParseSpec(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := (&core.Runner{}).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			md, err := Markdown(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(md))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Fatalf("report sha256 = %s, want %s", got, want[name])
			}
		})
	}
}
