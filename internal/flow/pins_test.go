package flow

import (
	"reflect"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/netlist"
)

// throughText writes the design's library and netlist as Liberty-lite and
// Verilog-lite, applies the replacer to each text and parses them back.
func throughText(t *testing.T, d *netlist.Design, lib, nl *strings.Replacer) *netlist.Design {
	t.Helper()
	var libSrc, nlSrc strings.Builder
	if err := celllib.WriteLiberty(&libSrc, d.Lib); err != nil {
		t.Fatal(err)
	}
	l, err := celllib.ParseLiberty(strings.NewReader(lib.Replace(libSrc.String())))
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteVerilog(&nlSrc, d); err != nil {
		t.Fatal(err)
	}
	out, err := netlist.ParseVerilog(strings.NewReader(nl.Replace(nlSrc.String())), l)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRenamedFlopPinsLeaveOutputsIdentical renames the flip-flops' pins in
// the library and the netlist together, CK to CP and D to DIN, and
// requires the baseline analysis to be == to that of the same text with
// the original names: every net's activity, every instance's power
// breakdown, the peak rise, the hotspots and the critical path. The pins
// are found by the library's rule, so the names must not matter.
func TestRenamedFlopPinsLeaveOutputsIdentical(t *testing.T) {
	lib := celllib.Default65nm()
	small, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam, err := bench.Scenario{Family: bench.FamilyHotspotCluster, Seed: 1, TargetCells: 1500}.Generate(lib)
	if err != nil {
		t.Fatal(err)
	}
	same := strings.NewReplacer()
	for _, c := range []struct {
		name string
		d    *netlist.Design
		wl   bench.Workload
	}{
		{"small", small, bench.SmallScatteredWorkload()},
		{string(bench.FamilyHotspotCluster), fam.Design, fam.Workload},
	} {
		t.Run(c.name, func(t *testing.T) {
			orig := New(throughText(t, c.d, same, same), c.wl, FastConfig())
			renamed := New(throughText(t, c.d,
				strings.NewReplacer("pin(CK)", "pin(CP)", "pin(D)", "pin(DIN)"),
				strings.NewReplacer(".CK(", ".CP(", ".D(", ".DIN(")), c.wl, FastConfig())
			if ff := renamed.Design.Lib.Master("DFF_X1"); ff.ClockPin() != "CP" || ff.DataPin() != "DIN" {
				t.Fatalf("renamed flip-flop pins: clock %q, data %q", ff.ClockPin(), ff.DataPin())
			}
			want, err := orig.AnalyzeBaseline()
			if err != nil {
				t.Fatal(err)
			}
			got, err := renamed.AnalyzeBaseline()
			if err != nil {
				t.Fatal(err)
			}
			wantAct, _ := orig.Activity()
			gotAct, _ := renamed.Activity()
			if !reflect.DeepEqual(gotAct, wantAct) {
				t.Error("net activities differ")
			}
			clock := 0.0
			for i, inst := range orig.Design.Instances() {
				w, g := want.Power.Breakdown(inst), got.Power.Breakdown(renamed.Design.Instances()[i])
				if g != w {
					t.Fatalf("%s: power %+v, want %+v", inst.Name, g, w)
				}
				clock += w.Clock
			}
			if clock <= 0 {
				t.Fatal("no clock power to compare")
			}
			if got.PeakRise() != want.PeakRise() || !reflect.DeepEqual(got.Hotspots, want.Hotspots) {
				t.Errorf("peak rise %v and hotspots %v, want %v and %v", got.PeakRise(), got.Hotspots, want.PeakRise(), want.Hotspots)
			}
			pathOf := func(an *Analysis) (s []string) {
				for _, st := range an.Timing.CriticalPath {
					s = append(s, st.Net.Name)
				}
				return s
			}
			if got.Timing.CriticalPathPs != want.Timing.CriticalPathPs || !reflect.DeepEqual(pathOf(got), pathOf(want)) {
				t.Errorf("critical path %v ps through %v, want %v ps through %v",
					got.Timing.CriticalPathPs, pathOf(got), want.Timing.CriticalPathPs, pathOf(want))
			}
		})
	}
}
