package floorplan

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/geom"
	"thermplace/internal/netlist"
)

// newReference is New with every area summed by a scan over the design
// instead of read from its running sums: the total over Instances(), each
// unit's over InstancesInUnit, the untagged cells' over Instances(),
// fillers skipped throughout.
func newReference(d *netlist.Design, cfg Config) *Floorplan {
	lib := d.Lib
	cellArea, untagged := 0.0, 0.0
	for _, inst := range d.Instances() {
		if !inst.IsFiller() {
			cellArea += inst.Master.Area(lib.RowHeight)
			if inst.Unit == "" {
				untagged += inst.Master.Area(lib.RowHeight)
			}
		}
	}
	coreArea := cellArea / cfg.Utilization
	width := math.Sqrt(coreArea / cfg.AspectRatio)
	nRows := max(int(math.Ceil(coreArea/width/lib.RowHeight)), 1)
	height := float64(nRows) * lib.RowHeight
	fp := &Floorplan{
		Core:      geom.Rect{Xhi: lib.SnapToSite(coreArea / height), Yhi: height},
		RowHeight: lib.RowHeight,
		Regions:   make(map[string]*Region),
	}
	type unitArea struct {
		name string
		area float64
	}
	var ua []unitArea
	for _, u := range d.Units() {
		a := 0.0
		for _, inst := range d.InstancesInUnit(u) {
			if !inst.IsFiller() {
				a += inst.Master.Area(lib.RowHeight)
			}
		}
		ua = append(ua, unitArea{u, a})
	}
	if untagged > 0 && len(ua) > 0 {
		sort.Slice(ua, func(i, j int) bool { return ua[i].area > ua[j].area })
		ua[0].area += untagged
	}
	sort.Slice(ua, func(i, j int) bool { return ua[i].name < ua[j].name })
	areas := make([]float64, len(ua))
	for i, u := range ua {
		areas[i] = u.area
	}
	for i, r := range bisect(fp.Core, areas) {
		fp.Regions[ua[i].name] = &Region{Unit: ua[i].name, Rect: r, CellArea: areas[i]}
	}
	return fp
}

// requireSameFloorplan fails the test unless got's core and every region
// (rectangle and cell area) are == want's.
func requireSameFloorplan(t *testing.T, what string, got, want *Floorplan) {
	t.Helper()
	if got.Core != want.Core {
		t.Fatalf("%s: core %v, reference %v", what, got.Core, want.Core)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: %d regions, reference %d", what, len(got.Regions), len(want.Regions))
	}
	for name, w := range want.Regions {
		if g := got.Regions[name]; g == nil || *g != *w {
			t.Fatalf("%s: region %s is %+v, reference %+v", what, name, g, w)
		}
	}
}

// glueAndFillerDesign has two units, untagged glue logic, fillers in a
// unit and untagged, and a unit whose only instance is a filler.
func glueAndFillerDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("glue", celllib.Default65nm())
	for i, c := range []struct{ master, unit string }{
		{"NAND2_X1", "alu"}, {"XOR2_X1", "alu"}, {"FILL4", "alu"}, {"DFF_X1", "alu"},
		{"INV_X1", ""}, {"FILL8", ""}, {"BUF_X1", ""},
		{"XOR2_X1", "mult"}, {"AND2_X1", "mult"}, {"NAND2_X1", "mult"},
		{"FILL2", "pad"},
	} {
		if _, err := d.AddInstance(fmt.Sprintf("i%d", i), c.master, c.unit); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestNewMatchesScanReference holds New, which reads the unit areas the
// design keeps, == to the scanning reference on every family, the paper
// design, and a design with glue logic and a filler-only unit.
func TestNewMatchesScanReference(t *testing.T) {
	lib := celllib.Default65nm()
	designs := map[string]*netlist.Design{"glue": glueAndFillerDesign(t)}
	for _, fam := range bench.Families() {
		g, err := bench.Scenario{Family: fam, Seed: 1, TargetCells: 3000}.Generate(lib)
		if err != nil {
			t.Fatal(err)
		}
		designs[string(fam)] = g.Design
	}
	paper, err := bench.Generate(lib, bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	designs["paper"] = paper
	for name, d := range designs {
		for _, cfg := range []Config{{Utilization: 0.85, AspectRatio: 1}, {Utilization: 0.6, AspectRatio: 2.5}} {
			fp, err := New(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFloorplan(t, fmt.Sprintf("%s at %+v", name, cfg), fp, newReference(d, cfg))
		}
	}
	if units := designs["glue"].Units(); fmt.Sprint(units) != "[alu mult pad]" {
		t.Fatalf("glue design units %v, want [alu mult pad]", units)
	}
}

// TestNewConcurrent builds floorplans of one design from several
// goroutines, as the sweep's workers do; under -race it checks that New
// only reads the design.
func TestNewConcurrent(t *testing.T) {
	d := smallDesign(t)
	utils := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	want := make([]*Floorplan, len(utils))
	for i, u := range utils {
		want[i] = newReference(d, Config{Utilization: u, AspectRatio: 1})
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	got := make([][]*Floorplan, len(errs))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range utils {
				fp, err := New(d, Config{Utilization: u, AspectRatio: 1})
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], fp)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		for i, fp := range got[w] {
			requireSameFloorplan(t, fmt.Sprintf("goroutine %d, utilization %g", w, utils[i]), fp, want[i])
		}
	}
}
