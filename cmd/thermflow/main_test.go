package main

import (
	"slices"
	"testing"

	"thermplace/internal/bench"
)

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
		wl, err := parseWorkload(tc.in, false)
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

// TestSmallBenchWorkloads checks that on the small benchmark the named
// workloads drive only units that benchmark has, and run its multiplier
// hot.
func TestSmallBenchWorkloads(t *testing.T) {
	var units []string
	for _, u := range bench.SmallConfig().Units {
		units = append(units, u.Name)
	}
	for _, name := range []string{"scattered", "concentrated"} {
		wl, err := parseWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		for u := range wl.Activity {
			if !slices.Contains(units, u) {
				t.Errorf("%s drives unit %q, which the small benchmark lacks", name, u)
			}
		}
		if wl.ActivityFor("mult8") <= wl.Default {
			t.Errorf("%s on the small benchmark drives mult8 at %g, background %g", name, wl.ActivityFor("mult8"), wl.Default)
		}
	}
}
