package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse: Parse, which decodes crystald's request bodies, never
// panics, and an accepted spec marshals to JSON that Parse accepts and that
// re-marshals to the same bytes. The corpus is seeded with the shipped specs.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios to seed from (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled spec rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal round trip moved:\n%s\n%s", out, out2)
		}
	})
}
