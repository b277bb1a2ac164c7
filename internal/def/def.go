// Package def writes placements in a DEF-lite exchange format, a small
// subset of the LEF/DEF conventions used by physical-design tools:
// distances are stored as integer database units (1000 per micrometre), the
// die area and per-component placed locations are recorded, and filler cells
// and pin (pad) locations are included so the file describes the complete
// placement.
package def

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// dbuPerUm is the database-unit resolution written into the DEF header.
const dbuPerUm = 1000

func toDBU(um float64) int { return int(math.Round(um * dbuPerUm)) }

// Write emits the placement as DEF-lite.
func Write(w io.Writer, p *place.Placement) error {
	bw := bufio.NewWriter(w)
	fp := p.FP
	fmt.Fprintf(bw, "VERSION 5.8 ;\n")
	fmt.Fprintf(bw, "DESIGN %s ;\n", p.Design.Name)
	fmt.Fprintf(bw, "UNITS DISTANCE MICRONS %d ;\n", dbuPerUm)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n",
		toDBU(fp.Core.Xlo), toDBU(fp.Core.Ylo), toDBU(fp.Core.Xhi), toDBU(fp.Core.Yhi))
	fmt.Fprintf(bw, "ROWHEIGHT %d ;\n", toDBU(fp.RowHeight))
	fmt.Fprintf(bw, "SITEWIDTH %d ;\n", toDBU(fp.SiteWidth))

	placed := 0
	for _, inst := range p.Design.Instances() {
		if _, ok := p.Loc(inst); ok {
			placed++
		}
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", placed+len(p.Fillers))
	for _, inst := range p.Design.Instances() {
		l, ok := p.Loc(inst)
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n", inst.Name, inst.Master.Name, toDBU(l.X), toDBU(fp.Rows[l.Row].Y))
	}
	for i, f := range p.Fillers {
		fmt.Fprintf(bw, "- FILLER_%d %s + FILLER ( %d %d ) N ;\n", i, f.Master.Name, toDBU(f.X), toDBU(fp.Rows[f.Row].Y))
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")

	var pins []*netlist.Port
	for _, port := range p.Design.Ports() {
		if _, ok := p.PortLoc(port); ok {
			pins = append(pins, port)
		}
	}
	fmt.Fprintf(bw, "PINS %d ;\n", len(pins))
	for _, port := range pins {
		pt, _ := p.PortLoc(port)
		dir := "INPUT"
		if port.Dir == netlist.Out {
			dir = "OUTPUT"
		}
		fmt.Fprintf(bw, "- %s + %s + PLACED ( %d %d ) ;\n", port.Name, dir, toDBU(pt.X), toDBU(pt.Y))
	}
	fmt.Fprintf(bw, "END PINS\n")
	fmt.Fprintf(bw, "END DESIGN\n")
	return bw.Flush()
}
