//go:build crystaldebug

package scenario

import "testing"

// TestMemoOracleOnMDC is the memo's full-walk oracle at the scale the memo is
// for: a forked ToR-uplink flap on M-DC under a 319,200-aggregate matrix,
// built with -tags crystaldebug so that every aggregate the fork reuses is
// re-walked and compared on the spot (traffic.Matrix.crossCheck panics on a
// disagreement). It takes the better part of a minute and ~1 GB, so it lives
// behind the tag and scripts/check.sh runs it by name, outside SHORT=1.
func TestMemoOracleOnMDC(t *testing.T) {
	conv, err := Converge(flapUnderLoad(t, "mdc", 4_000_000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, m := runForked(t, conv, flapUnderLoad(t, "mdc", 4_000_000))
	if !rep.Passed {
		t.Fatalf("M-DC flap under load failed:\n%s", rep.JSON())
	}
	checkFlapWalks(t, m)
}
