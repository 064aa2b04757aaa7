package scenario

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestAssertReachableFailoverGolden pins assert-reachable's report bytes
// across a link-down failover: the healthy path, the path over the
// surviving uplink before and after reconvergence, the reverse direction,
// and — with both uplinks down — the failing check's rendered path. The
// golden was captured at 06b6305, when the op still walked a full PullFIBs
// snapshot; walking the live FIBs must not move a byte of it.
func TestAssertReachableFailoverGolden(t *testing.T) {
	reach := func(from, to string, expect *bool) Step {
		return Step{Op: OpAssertReachable, From: from, DstDevice: to, DstOffset: 1, Expect: expect}
	}
	sp := tinySpec(
		reach("tor-p0-0", "tor-p1-1", nil),
		Step{Op: OpSetLink, A: "tor-p0-0:et0", B: "leaf-p0-0:et2", Up: boolp(false)},
		reach("tor-p0-0", "tor-p1-1", nil),
		Step{Op: OpWaitConverge},
		reach("tor-p0-0", "tor-p1-1", nil),
		reach("border-g0-0", "tor-p0-0", nil),
		Step{Op: OpSetLink, A: "tor-p0-0:et1", B: "leaf-p0-1:et2", Up: boolp(false)},
		Step{Op: OpWaitConverge},
		reach("tor-p0-0", "tor-p1-1", boolp(false)),
		reach("tor-p1-1", "tor-p0-0", nil),
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/assert_reachable_failover.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.JSON(); !bytes.Equal(got, want) {
		t.Fatalf("report bytes differ from the golden:\n%s", got)
	}
}

// TestReloadConfigLeavesSharedBaselineIntact: the runner's baseline
// configurations are the devices' own *DeviceConfig values, shared with the
// running firmware and with every concurrent fork, so an ACL patch and its
// rollback must work on copies and leave them bit-identical. Two forks run
// the patch at once so -race sees any write to the shared values.
func TestReloadConfigLeavesSharedBaselineIntact(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpReloadConfig, Device: "leaf-p0-0",
			ACL: &ACLPatch{Name: "GUARD", DenySrc: "203.0.113.0/24", BindIngress: true}},
		Step{Op: OpWaitConverge},
		Step{Op: OpReloadConfig, Device: "leaf-p0-0", FromBaseline: true},
		Step{Op: OpWaitConverge},
		Step{Op: OpAssertFIBDiff},
	)
	cv, err := Converge(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared := cv.baseline.Configs["leaf-p0-0"]
	before := shared.Clone()

	var wg sync.WaitGroup
	reports := make([][]byte, 2)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := cv.Run(sp.Clone(), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !rep.Passed {
				t.Errorf("fork %d failed:\n%s", i, rep.JSON())
			}
			reports[i] = rep.JSON()
		}(i)
	}
	wg.Wait()

	if cv.baseline.Configs["leaf-p0-0"] != shared {
		t.Fatal("baseline configuration pointer was rebound")
	}
	// Clone normalises nil maps to empty ones, so compare clone to clone.
	if after := shared.Clone(); !reflect.DeepEqual(after, before) {
		t.Fatalf("reload-config wrote through the shared baseline configuration:\n got %+v\nwant %+v", after, before)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("concurrent forks produced different reports")
	}
}
