package config

import (
	"reflect"
	"testing"

	"crystalnet/internal/topo"
)

// dialects are the configuration languages Parse and Render speak.
var dialects = []Dialect{
	{Vendor: "ctnra", Version: "1.0"},
	{Vendor: "ctnra", Version: "2.0"}, // swapped ACLs, but self-consistent
	{Vendor: "ctnrb", Version: "1.0"},
	{Vendor: "vma", Version: "3.1"},
	{Vendor: "vmb", Version: "7.2"},
}

// FuzzConfigParse: Parse never panics, in any dialect, and what a dialect
// accepts it renders to a text it parses back to the same config:
// Parse(Render(Parse(x))) == Parse(x). The seeds are the sample config and
// one generated fabric config (a leaf's: neighbours both ways, networks,
// aggregates) rendered in every dialect, and the committed corpus holds the
// mangled and truncated lines TestParseNeverPanics and
// TestParseTruncatedLines feed.
func FuzzConfigParse(f *testing.F) {
	leaf := Generate(topo.GenerateClos(topo.SDC()))["leaf-p0-0"]
	for _, d := range dialects {
		f.Add(Render(sampleConfig(), d))
		f.Add(Render(leaf, d))
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, d := range dialects {
			c, err := Parse(text, d)
			if err != nil {
				continue
			}
			again, err := Parse(Render(c, d), d)
			if err != nil {
				t.Fatalf("%v: rendered config does not parse: %v\n%s", d, err, Render(c, d))
			}
			if !reflect.DeepEqual(again, c) {
				t.Fatalf("%v: Parse(Render(Parse(x))) differs from Parse(x)\nparsed:   %+v\nreparsed: %+v\nrendered:\n%s", d, c, again, Render(c, d))
			}
		}
	})
}
