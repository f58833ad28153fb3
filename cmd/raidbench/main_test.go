package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelectExperiments: names pick experiments in registry order, no names
// pick all, and any unknown name, even beside known ones, runs nothing and
// fails with status 2 and the known list.
func TestSelectExperiments(t *testing.T) {
	all := []experiment{{name: "fig5"}, {name: "table2"}, {name: "faults"}}
	names := func(exs []experiment) string {
		var s []string
		for _, ex := range exs {
			s = append(s, ex.name)
		}
		return strings.Join(s, ",")
	}
	for _, tc := range []struct {
		args []string
		want string
		code int
	}{
		{nil, "fig5,table2,faults", 0},
		{[]string{"faults", "fig5"}, "fig5,faults", 0},
		{[]string{"table2", "table2"}, "table2", 0},
		{[]string{"table2", "nosuch"}, "", 2},
		{[]string{"nosuch"}, "", 2},
	} {
		var stderr bytes.Buffer
		got, code := selectExperiments(all, tc.args, &stderr)
		if names(got) != tc.want || code != tc.code {
			t.Errorf("%q: ran %q with status %d, want %q with %d", tc.args, names(got), code, tc.want, tc.code)
		}
		if msg := stderr.String(); tc.code != 0 && (!strings.Contains(msg, `unknown experiment "nosuch"`) || !strings.Contains(msg, "table2")) {
			t.Errorf("%q: stderr %q does not name the unknown experiment and list the known ones", tc.args, msg)
		}
	}
}
