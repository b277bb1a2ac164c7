package timing

import (
	"fmt"
	"testing"

	"thermplace/internal/celllib"
	"thermplace/internal/floorplan"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
)

// oraclePath is one launch-to-endpoint path found by enumeration: the nets
// its steps drive, in launch-to-capture order (a primary-input launch
// contributes no step, matching Report.CriticalPath), and its delay summed
// left to right.
type oraclePath struct {
	nets []*netlist.Net
	ps   float64
}

// enumeratePaths walks every path from every launch point (primary inputs
// at t=0, flip-flop outputs at their clock-to-output delay) through the
// combinational gates, recording one path per endpoint reached (flip-flop
// data input or primary output). It reads the netlist directly and never
// touches the Analyzer's levelized graph or its arrival recurrence; only
// the per-step delay model is shared.
func enumeratePaths(d *netlist.Design, p *place.Placement, opts Options) []oraclePath {
	endpoint := map[*netlist.Net]bool{}
	for _, inst := range d.Instances() {
		if !inst.Master.Sequential {
			continue
		}
		if dn := inst.Conn(inst.Master.DataPin()); dn != nil {
			endpoint[dn] = true
		}
	}
	for _, port := range d.Ports() {
		if port.Dir == netlist.Out && port.Net != nil {
			endpoint[port.Net] = true
		}
	}

	var paths []oraclePath
	var walk func(net *netlist.Net, nets []*netlist.Net, t float64)
	walk = func(net *netlist.Net, nets []*netlist.Net, t float64) {
		if endpoint[net] {
			paths = append(paths, oraclePath{nets: append([]*netlist.Net(nil), nets...), ps: t})
		}
		for _, l := range net.Loads {
			g := l.Inst
			if g == nil || g.Master.Sequential || g.Master.Filler {
				continue
			}
			out := g.Conn(g.Master.OutputPin())
			walk(out, append(nets, out), t+(cellDelay(d, p, g, out, opts)+wireDelay(d, p, out, opts)))
		}
	}
	for _, port := range d.Ports() {
		if port.Dir == netlist.In && port.Net != nil {
			walk(port.Net, nil, 0)
		}
	}
	for _, ff := range d.Instances() {
		if !ff.Master.Sequential {
			continue
		}
		if q := ff.Conn(ff.Master.OutputPin()); q != nil {
			walk(q, []*netlist.Net{q}, cellDelay(d, p, ff, q, opts)+wireDelay(d, p, q, opts))
		}
	}
	return paths
}

// reconvergentDesign builds four levels of three two-input gates, each gate
// reading two nets of the level below, on top of primary inputs a and b and
// a flip-flop output. The fan-out reconverges at every level, so each
// last-level net is reached by 16 paths. Three last-level nets are captured
// (two flip-flops and a primary output) and one second-level net is also a
// primary output that keeps feeding logic: 52 launch-to-endpoint paths in
// all.
func reconvergentDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("reconv", celllib.Default65nm())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"clk", "a", "b"} {
		_, err := d.AddPort(name, netlist.In)
		must(err)
	}
	ff0, err := d.AddInstance("ff0", "DFF_X1", "u")
	must(err)
	must(d.Connect(ff0, "CK", d.Net("clk")))
	q0 := d.GetOrCreateNet("q0")
	must(d.Connect(ff0, "Z", q0))

	level := []*netlist.Net{d.Net("a"), d.Net("b"), q0}
	masters := []string{"NAND2_X1", "NOR2_X1", "XOR2_X1", "AND2_X1"}
	for l, master := range masters {
		next := make([]*netlist.Net, len(level))
		for j := range level {
			g, err := d.AddInstance(fmt.Sprintf("g%d_%d", l, j), master, "u")
			must(err)
			must(d.Connect(g, "A", level[j]))
			must(d.Connect(g, "B", level[(j+1)%len(level)]))
			next[j] = d.GetOrCreateNet(fmt.Sprintf("n%d_%d", l, j))
			must(d.Connect(g, "Z", next[j]))
		}
		if l == 1 {
			y, err := d.AddPort("mid", netlist.Out)
			must(err)
			y.Net = next[0]
		}
		level = next
	}
	must(d.Connect(ff0, "D", level[0]))
	ff1, err := d.AddInstance("ff1", "DFF_X1", "u")
	must(err)
	must(d.Connect(ff1, "D", level[1]))
	must(d.Connect(ff1, "CK", d.Net("clk")))
	must(d.Connect(ff1, "Z", d.GetOrCreateNet("q1")))
	y, err := d.AddPort("y", netlist.Out)
	must(err)
	y.Net = level[2]
	return d
}

// TestAnalyzeMatchesPathEnumeration is the independent timing oracle: on
// small DAGs, the critical path and slack of Analyzer.Analyze must be == to
// the worst of every explicitly enumerated launch-to-endpoint path, and the
// reported critical path must be one of the worst paths. == holds because
// the worst path's left-to-right sum performs the same float additions as
// the levelized max-plus recurrence, and rounding is monotone, so taking
// the max before or after an addition gives the same value. Each design is
// analyzed without a placement and with a placement under a temperature
// gradient, so wire delays and per-location derates are covered.
func TestAnalyzeMatchesPathEnumeration(t *testing.T) {
	for _, tc := range []struct {
		name      string
		d         *netlist.Design
		wantPaths int
	}{
		{"chain", chainDesign(t, 6), 1},
		{"reconvergent", reconvergentDesign(t), 52},
	} {
		fp, err := floorplan.New(tc.d, floorplan.Config{Utilization: 0.3, AspectRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := place.Place(tc.d, fp)
		if err != nil {
			t.Fatal(err)
		}
		derated := DefaultOptions()
		derated.TemperatureMap = gradientMap(p.FP.Core)
		a, err := NewAnalyzer(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			label string
			p     *place.Placement
			opts  Options
		}{
			{"unplaced", nil, DefaultOptions()},
			{"placed-gradient", p, derated},
		} {
			label := tc.name + "/" + run.label
			paths := enumeratePaths(tc.d, run.p, run.opts)
			if len(paths) != tc.wantPaths {
				t.Fatalf("%s: enumerated %d paths, want %d", label, len(paths), tc.wantPaths)
			}
			worst := paths[0].ps
			for _, path := range paths[1:] {
				worst = max(worst, path.ps)
			}
			rep := a.Analyze(run.p, run.opts)
			if rep.CriticalPathPs != worst {
				t.Fatalf("%s: critical path %v ps, enumeration's worst path %v ps", label, rep.CriticalPathPs, worst)
			}
			if want := run.opts.ClockPeriodPs - worst; rep.SlackPs != want {
				t.Fatalf("%s: slack %v ps, want %v ps", label, rep.SlackPs, want)
			}
			if !isWorstPath(rep.CriticalPath, paths, worst) {
				t.Fatalf("%s: reported critical path %v is not one of the worst enumerated paths", label, stepNets(rep.CriticalPath))
			}
		}
	}
}

// isWorstPath reports whether the steps trace, net for net, one enumerated
// path whose delay is worst, and end arriving at that delay.
func isWorstPath(steps []PathStep, paths []oraclePath, worst float64) bool {
	if len(steps) == 0 || steps[len(steps)-1].TimePs != worst {
		return false
	}
	for _, path := range paths {
		if path.ps != worst || len(path.nets) != len(steps) {
			continue
		}
		same := true
		for i, s := range steps {
			same = same && s.Net == path.nets[i]
		}
		if same {
			return true
		}
	}
	return false
}

func stepNets(steps []PathStep) []string {
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.Net.Name
	}
	return names
}
