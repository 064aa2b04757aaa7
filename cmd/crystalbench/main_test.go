package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		arg     string
		want    map[string]bool
		wantErr string
	}{
		{arg: "", want: nil},
		{arg: "figure8", want: map[string]bool{"figure8": true}},
		{arg: "sec9, figure9", want: map[string]bool{"sec9": true, "figure9": true}},
		{arg: "nope", wantErr: `unknown experiment "nope"`},
		{arg: "figure8,scale", wantErr: `unknown experiment "scale"`},
		{arg: "figure8,", wantErr: `unknown experiment ""`},
	} {
		got, err := parseOnly(tc.arg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "table4solve") {
				t.Errorf("parseOnly(%q) error = %v, want %q plus the valid keys", tc.arg, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOnly(%q) = %v, %v; want %v", tc.arg, got, err, tc.want)
		}
	}
}
