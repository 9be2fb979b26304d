package usability

import (
	"reflect"
	"testing"

	"cloudhpc/internal/trace"
)

// interleavedLog mixes two environments and every category, Info and
// Billing included at scoring severities, so a scorer that reads the log
// once must route each event to the right environment and column.
func interleavedLog() *trace.Log {
	log := trace.NewLog()
	for _, e := range []struct {
		env string
		cat trace.Category
		sev trace.Severity
		msg string
	}{
		{"a", trace.Setup, trace.Unexpected, "a-setup-1"},
		{"b", trace.Setup, trace.Blocking, "b-setup-1"},
		{"a", trace.Info, trace.Blocking, "a-info"},
		{"a", trace.Development, trace.Routine, "a-dev-routine"},
		{"a", trace.Manual, trace.Unexpected, "a-manual-1"},
		{"b", trace.Development, trace.Unexpected, "b-dev-1"},
		{"a", trace.Billing, trace.Unexpected, "a-billing"},
		{"a", trace.Setup, trace.Blocking, "a-setup-2"},
		{"b", trace.Billing, trace.Blocking, "b-billing"},
		{"a", trace.Development, trace.Unexpected, "a-dev-1"},
		{"b", trace.Manual, trace.Blocking, "b-manual-1"},
		{"a", trace.Manual, trace.Unexpected, "a-manual-2"},
		{"b", trace.Info, trace.Unexpected, "b-info"},
		{"a", trace.Setup, trace.Unexpected, "a-setup-3"},
		{"a", trace.AppSetup, trace.Routine, "a-appsetup-routine"},
	} {
		log.Addf(0, e.env, e.cat, e.sev, "%s", e.msg)
	}
	return log
}

func evidenceMsgs(a Assessment) map[trace.Category][]string {
	out := map[trace.Category][]string{}
	for cat, evs := range a.Evidence {
		for _, e := range evs {
			out[cat] = append(out[cat], e.Msg)
		}
	}
	return out
}

func TestScoreInterleavedLog(t *testing.T) {
	t.Parallel()
	log := interleavedLog()
	for _, tc := range []struct {
		env      string
		scores   map[trace.Category]Effort
		evidence map[trace.Category][]string
	}{
		{
			env: "a",
			scores: map[trace.Category]Effort{
				trace.Setup: High, trace.Development: Medium,
				trace.AppSetup: Low, trace.Manual: Medium,
			},
			evidence: map[trace.Category][]string{
				trace.Setup:       {"a-setup-1", "a-setup-2", "a-setup-3"},
				trace.Development: {"a-dev-1"},
				trace.Manual:      {"a-manual-1", "a-manual-2"},
			},
		},
		{
			env: "b",
			scores: map[trace.Category]Effort{
				trace.Setup: High, trace.Development: Medium,
				trace.AppSetup: Low, trace.Manual: High,
			},
			evidence: map[trace.Category][]string{
				trace.Setup:       {"b-setup-1"},
				trace.Development: {"b-dev-1"},
				trace.Manual:      {"b-manual-1"},
			},
		},
	} {
		a := NewScorer().Score(log, tc.env)
		if a.Env != tc.env {
			t.Errorf("Env = %q, want %q", a.Env, tc.env)
		}
		if !reflect.DeepEqual(a.Scores, tc.scores) {
			t.Errorf("%s: Scores = %v, want %v", tc.env, a.Scores, tc.scores)
		}
		// Exact equality pins insertion order, keeps Info and Billing
		// out, and keeps the other environment's events out.
		if got := evidenceMsgs(a); !reflect.DeepEqual(got, tc.evidence) {
			t.Errorf("%s: Evidence = %v, want %v", tc.env, got, tc.evidence)
		}
		for _, cat := range []trace.Category{trace.Info, trace.Billing} {
			if _, ok := a.Evidence[cat]; ok {
				t.Errorf("%s: %s events collected as evidence", tc.env, cat)
			}
			if _, ok := a.Scores[cat]; ok {
				t.Errorf("%s: %s scored", tc.env, cat)
			}
		}
	}
}

func TestScoreInterleavedPileUp(t *testing.T) {
	t.Parallel()
	// With a threshold of 2, env a's two interleaved Manual events are a
	// pile-up; env b's single Development event is not.
	s := &Scorer{UnexpectedHighThreshold: 2}
	log := interleavedLog()
	if got := s.Score(log, "a").Scores[trace.Manual]; got != High {
		t.Errorf("a manual = %v, want high", got)
	}
	if got := s.Score(log, "b").Scores[trace.Development]; got != Medium {
		t.Errorf("b development = %v, want medium", got)
	}
}

// TestScoreMatchesPerCategoryScan checks the single pass against the
// rubric applied literally: one filtered scan of the environment's
// events per category.
func TestScoreMatchesPerCategoryScan(t *testing.T) {
	t.Parallel()
	log := interleavedLog()
	s := NewScorer()
	for _, env := range []string{"a", "b", "absent"} {
		want := Assessment{
			Env:      env,
			Scores:   map[trace.Category]Effort{},
			Evidence: map[trace.Category][]trace.Event{},
		}
		for _, cat := range Categories {
			var unexpected, blocking int
			for _, e := range log.ByEnv(env) {
				if e.Category != cat {
					continue
				}
				switch e.Severity {
				case trace.Unexpected:
					unexpected++
				case trace.Blocking:
					blocking++
				default:
					continue
				}
				want.Evidence[cat] = append(want.Evidence[cat], e)
			}
			switch {
			case blocking > 0 || unexpected >= s.UnexpectedHighThreshold:
				want.Scores[cat] = High
			case unexpected > 0:
				want.Scores[cat] = Medium
			default:
				want.Scores[cat] = Low
			}
		}
		if got := s.Score(log, env); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Score = %+v, want %+v", env, got, want)
		}
	}
}
