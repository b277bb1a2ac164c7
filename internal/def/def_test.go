package def

import (
	"fmt"
	"strings"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

func placedSmall(t *testing.T) *place.Placement {
	t.Helper()
	lib := celllib.Default65nm()
	d, err := bench.Generate(lib, bench.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(d, floorplan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, fp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWriteListsEveryElement checks that Write prints the header, the die
// area, the component and pin counts and one line per placed instance,
// filler and pin, with every coordinate in database units, and nothing
// else.
func TestWriteListsEveryElement(t *testing.T) {
	p := placedSmall(t)
	d, core := p.Design, p.FP.Core
	var buf strings.Builder
	if err := Write(&buf, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	lines := map[string]bool{}
	for _, l := range got {
		lines[l] = true
	}
	placed := 0
	var want []string
	for _, inst := range d.Instances() {
		if l, ok := p.Loc(inst); ok {
			placed++
			want = append(want, fmt.Sprintf("- %s %s + PLACED ( %d %d ) N ;", inst.Name, inst.Master.Name, toDBU(l.X), toDBU(p.FP.Rows[l.Row].Y)))
		}
	}
	for i, f := range p.Fillers {
		want = append(want, fmt.Sprintf("- FILLER_%d %s + FILLER ( %d %d ) N ;", i, f.Master.Name, toDBU(f.X), toDBU(p.FP.Rows[f.Row].Y)))
	}
	pins := 0
	for _, port := range d.Ports() {
		if pt, ok := p.PortLoc(port); ok {
			pins++
			dir := "INPUT"
			if port.Dir == netlist.Out {
				dir = "OUTPUT"
			}
			want = append(want, fmt.Sprintf("- %s + %s + PLACED ( %d %d ) ;", port.Name, dir, toDBU(pt.X), toDBU(pt.Y)))
		}
	}
	if placed == 0 || len(p.Fillers) == 0 || pins == 0 {
		t.Fatalf("fixture must place instances, fillers and pins: %d, %d, %d", placed, len(p.Fillers), pins)
	}
	want = append(want,
		"VERSION 5.8 ;", "DESIGN synth_small ;", "UNITS DISTANCE MICRONS 1000 ;",
		fmt.Sprintf("DIEAREA ( %d %d ) ( %d %d ) ;", toDBU(core.Xlo), toDBU(core.Ylo), toDBU(core.Xhi), toDBU(core.Yhi)),
		fmt.Sprintf("ROWHEIGHT %d ;", toDBU(p.FP.RowHeight)),
		fmt.Sprintf("SITEWIDTH %d ;", toDBU(p.FP.SiteWidth)),
		fmt.Sprintf("COMPONENTS %d ;", placed+len(p.Fillers)),
		fmt.Sprintf("PINS %d ;", pins),
		"END COMPONENTS", "END PINS", "END DESIGN")
	for _, w := range want {
		if !lines[w] {
			t.Fatalf("DEF output missing line %q", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("DEF output has %d lines, want %d", len(got), len(want))
	}
}
