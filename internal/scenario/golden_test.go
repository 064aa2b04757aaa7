package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the reports the shipped scenarios produce now")

// TestShippedScenarioGoldens pins the report bytes of every shipped
// scenario, run fresh with zero Options, to testdata/golden/<name>.json. A
// change that claims not to move output proves it here; one that means to
// move it reruns with -update and shows the diff.
func TestShippedScenarioGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(strings.TrimSuffix(name, ".json"), func(t *testing.T) {
			sp, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", name)
			got := rep.JSON()
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: report bytes differ from %s (rerun with -update if the change is meant):\n%s", name, golden, got)
			}
		})
	}
}
