package main

import (
	"slices"
	"strings"
	"testing"
)

const fixture = "testdata/fixture"

func TestCallerRule(t *testing.T) {
	got := callerProblems(fixture, map[string]string{
		"a.Allowed": "test oracle: the fixture's exemption",
		"a.Pinned":  benchPin,
	})
	var flagged []string
	for _, p := range got {
		if !strings.Contains(p, "has no non-test use") {
			t.Errorf("unexpected problem: %s", p)
			continue
		}
		flagged = append(flagged, strings.Fields(p)[1])
	}
	slices.Sort(flagged)
	// Uncalled has only a test and bench/ calling it, BenchOnly only bench/;
	// the type Unused only a test and its own method's receiver, the var
	// unusedLimit and the constant CodeB only a test. The allowlisted,
	// called, recursive, Stringer and interface-dispatched functions and the
	// var and constant cmd/app reads pass.
	if want := []string{"a.BenchOnly", "a.CodeB", "a.Uncalled", "a.Unused", "a.unusedLimit"}; !slices.Equal(flagged, want) {
		t.Fatalf("flagged %v, want %v (all problems: %q)", flagged, want, got)
	}
}

func TestCallerAllowlistCannotRot(t *testing.T) {
	got := callerProblems(fixture, map[string]string{
		"a.Allowed":     "test oracle: the fixture's exemption",
		"a.Called":      "test oracle: has a caller anyway",
		"a.Allowed2":    "test oracle: names nothing",
		"a.Uncalled":    benchPin, // bench/ calls it, so this one is fine
		"a.BenchOnly":   "test oracle: the fixture's exemption",
		"a.Pinned":      benchPin,
		"a.Unused":      "test oracle: the fixture's exemption",
		"a.unusedLimit": "test oracle: the fixture's exemption",
		"a.CodeB":       "wire code: the fixture's exemption",
	})
	want := []string{
		"caller allowlist: a.Called has a use now; drop its entry",
		"caller allowlist: a.Allowed2 names no declaration under internal/",
	}
	if !sameSet(got, want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
	got = callerProblems(fixture, map[string]string{"a.Allowed": benchPin, "a.Uncalled": "x", "a.BenchOnly": "x", "a.Pinned": "x", "a.Unused": "x", "a.unusedLimit": "x", "a.CodeB": "x"})
	if want := []string{"caller allowlist: bench/ no longer calls a.Allowed; delete it"}; !sameSet(got, want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
}

func TestCheckScriptNamesExist(t *testing.T) {
	got := checkScriptProblems(fixture)
	want := []string{
		"scripts/check.sh: pattern TestGone matches no test the module declares",
		"scripts/check.sh: pattern ^TestCall$ matches no test the module declares",
		"scripts/check.sh: pattern Gone matches no test the module declares",
	}
	if !sameSet(got, want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
