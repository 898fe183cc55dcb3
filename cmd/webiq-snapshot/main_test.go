package main

import "testing"

func TestPathArg(t *testing.T) {
	cases := []struct {
		args   []string
		path   string
		asJSON bool
		ok     bool
	}{
		{[]string{"w.snap"}, "w.snap", false, true},
		{[]string{"w.snap", "-json"}, "w.snap", true, true},
		{[]string{"-json", "w.snap"}, "w.snap", true, true},
		{[]string{"-json=false", "w.snap"}, "w.snap", false, true},
		{[]string{"w.snap", "--json"}, "w.snap", true, true},
		{nil, "", false, false},
		{[]string{"-json"}, "", false, false},
		{[]string{"a.snap", "b.snap"}, "", false, false},
		{[]string{"a.snap", "-json", "b.snap"}, "", false, false},
		{[]string{"w.snap", "-bogus"}, "", false, false},
	}
	for _, c := range cases {
		path, asJSON, err := pathArg("info", c.args)
		if (err == nil) != c.ok {
			t.Errorf("pathArg(%q) error = %v, want ok=%v", c.args, err, c.ok)
			continue
		}
		if c.ok && (path != c.path || asJSON != c.asJSON) {
			t.Errorf("pathArg(%q) = %q, %v; want %q, %v", c.args, path, asJSON, c.path, c.asJSON)
		}
	}
}
