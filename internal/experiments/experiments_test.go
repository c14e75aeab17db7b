package experiments

import (
	"strings"
	"testing"

	"whereroam/internal/radio"
)

// has reports whether the report carries a named value.
func has(rep *Report, key string) bool {
	_, ok := rep.Values[key]
	return ok
}

// The registry and canonicalOrder name the same runners, and every
// runner has a paperRows row or a reason not to.
func TestRegistryComplete(t *testing.T) {
	rows := map[string]bool{}
	for _, row := range paperRows {
		rows[row.runner] = true
	}
	registered := map[string]bool{}
	for _, r := range All() {
		registered[r.ID] = true
		if _, ok := canonicalOrder[r.ID]; !ok {
			t.Errorf("runner %q is missing from canonicalOrder", r.ID)
		}
		if _, exempt := paperExempt[r.ID]; !rows[r.ID] && !exempt {
			t.Errorf("runner %q has no paperRows row and no paperExempt reason", r.ID)
		}
	}
	for id := range canonicalOrder {
		if !registered[id] {
			t.Errorf("canonicalOrder names %q, which is not registered", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should fail for unknown ids")
	}
}

func TestReportRendering(t *testing.T) {
	r, _ := ByID("t1")
	s := r.Run(NewSessionWorkers(1, 0.05, 0)).String()
	for _, want := range []string{"t1", "HMNO", "paper:", "values:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q", want)
		}
	}
}

// ratBucket's table names every set as the rule it replaced did:
// "none" for the empty set, RATSet.String otherwise.
func TestRATBucketTable(t *testing.T) {
	for s := 0; s < 256; s++ {
		set := radio.RATSet(s)
		want := set.String()
		if set.Empty() {
			want = "none"
		}
		if got := ratBucket(set); got != want {
			t.Errorf("ratBucket(%08b) = %q, want %q", s, got, want)
		}
	}
}
