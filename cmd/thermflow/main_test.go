package main

import "testing"

// TestParseWorkload pins the -workload grammar: the named workloads, bare
// uniform, and uniform:<a> with a finite toggle probability in [0, 1];
// anything else is an error.
func TestParseWorkload(t *testing.T) {
	for _, tc := range []struct {
		in       string
		ok       bool
		activity float64 // uniform workloads only
	}{
		{in: "scattered", ok: true},
		{in: "concentrated", ok: true},
		{in: "uniform", ok: true, activity: 0.25},
		{in: "uniform:0", ok: true, activity: 0},
		{in: "uniform:0.3", ok: true, activity: 0.3},
		{in: "uniform:1", ok: true, activity: 1},
		{in: "uniformly"},
		{in: "uniform:"},
		{in: "uniform:abc"},
		{in: "uniform:NaN"},
		{in: "uniform:Inf"},
		{in: "uniform:-0.1"},
		{in: "uniform:7"},
		{in: "uniform:0.3:0.4"},
		{in: "bogus"},
		{in: ""},
	} {
		wl, err := parseWorkload(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("parseWorkload(%q): err = %v, want ok = %v", tc.in, err, tc.ok)
		}
		if !tc.ok || tc.in == "scattered" || tc.in == "concentrated" {
			continue
		}
		if got := wl.ActivityFor("any-unit"); got != tc.activity {
			t.Fatalf("parseWorkload(%q): activity %v, want %v", tc.in, got, tc.activity)
		}
	}
}
