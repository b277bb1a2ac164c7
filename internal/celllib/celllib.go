// Package celllib models the standard-cell library used by the synthesis,
// placement, power and timing stages.
//
// The paper's experiments use an STM 65 nm commercial library; since that
// library is proprietary, this package provides a synthetic 65 nm-class
// library (see Default65nm) with areas, capacitances, energies and leakage
// in the right ballpark, plus a small "Liberty-lite" text format so that
// libraries can be stored on disk and exchanged between tools.
//
// Only single-output combinational cells, a D flip-flop and zero-power
// filler (dummy) cells are modelled: that is all the post-placement
// temperature-reduction flow requires. AddMaster resolves each flip-flop's
// clock and data pins once, for simulation, timing and power to read.
package celllib

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// PinDir is the direction of a cell pin.
type PinDir int

const (
	// Input marks a cell input pin.
	Input PinDir = iota
	// Output marks a cell output pin.
	Output
)

func (d PinDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Pin describes one pin of a cell master.
type Pin struct {
	Name string
	Dir  PinDir
	// Cap is the pin input capacitance in femtofarads. Output pins have
	// zero capacitance (their drive is modelled by Master.DriveRes).
	Cap float64
}

// Master is a standard-cell library element ("cell master" / "lib cell").
type Master struct {
	// Name is the library cell name, e.g. "NAND2_X1".
	Name string
	// Width is the physical cell width in micrometres. All cells are one
	// row high (Library.RowHeight).
	Width float64
	// Pins lists the cell pins; inputs first by convention, but code must
	// not rely on ordering.
	Pins []Pin
	// Function is the combinational logic function of the (single) output.
	// Sequential and filler cells use FuncDFF and FuncNone respectively.
	Function Func
	// DriveRes is the equivalent output drive resistance in kilo-ohms, used
	// by the timing model (delay = Intrinsic + DriveRes * Cload).
	DriveRes float64
	// Intrinsic is the intrinsic (no-load) delay in picoseconds.
	Intrinsic float64
	// Leakage is the static leakage power in nanowatts at nominal
	// temperature and voltage.
	Leakage float64
	// SwitchEnergy is the internal energy dissipated per output transition
	// in femtojoules (excluding the energy spent charging the external
	// load, which power estimation adds from net capacitance).
	SwitchEnergy float64
	// Sequential marks storage elements (flip-flops), whose two inputs are
	// a clock pin (see ClockPin) and a data pin.
	Sequential bool
	// Filler marks dummy cells: no active transistors, zero power. They
	// only guarantee power/ground rail continuity, exactly as in the paper.
	Filler bool

	// inputs caches the input pin names in declaration order. AddMaster
	// populates it; Pins must not change afterwards. Masters built outside
	// a Library (tests) leave it nil and Inputs falls back to a scan.
	inputs []string
	// clockPin and dataPin are a flip-flop's, resolved by AddMaster.
	clockPin, dataPin string
}

// clockPinNames are the lower-cased names of a flip-flop's clock input.
var clockPinNames = []string{"ck", "clk", "clock", "cp", "ckb", "clkb"}

// PinError reports a master with two pins of one name, a cell without
// exactly one output pin (a filler with any), or a flip-flop without
// exactly one clock input and one data input.
type PinError struct {
	Master, Reason string
	Inputs         []string
}

func (e *PinError) Error() string {
	return fmt.Sprintf("celllib: master %q (inputs %v) %s", e.Master, e.Inputs, e.Reason)
}

// Area returns the cell area in um^2 given the library row height.
func (m *Master) Area(rowHeight float64) float64 { return m.Width * rowHeight }

// Inputs returns the names of the input pins in declaration order. The
// returned slice is shared (memoized by AddMaster); callers must not
// mutate it.
func (m *Master) Inputs() []string {
	if m.inputs != nil {
		return m.inputs
	}
	var in []string
	for _, p := range m.Pins {
		if p.Dir == Input {
			in = append(in, p.Name)
		}
	}
	return in
}

// ClockPin returns the name of a flip-flop's clock input: the one input
// whose lower-cased name is ck, clk, clock, cp, ckb or clkb. AddMaster
// resolves it; other masters, and masters outside a library, return "".
func (m *Master) ClockPin() string { return m.clockPin }

// DataPin returns the name of a flip-flop's data input, its one input that
// is not the clock, as AddMaster resolved it ("" for other masters).
func (m *Master) DataPin() string { return m.dataPin }

// OutputPin returns the name of the output pin, the one AddMaster requires
// of every non-filler master, or "" for filler cells.
func (m *Master) OutputPin() string {
	for _, p := range m.Pins {
		if p.Dir == Output {
			return p.Name
		}
	}
	return ""
}

// PinCap returns the input capacitance of the named pin (0 when unknown).
func (m *Master) PinCap(name string) float64 {
	for _, p := range m.Pins {
		if p.Name == name {
			return p.Cap
		}
	}
	return 0
}

// Library is a named collection of cell masters plus the technology
// parameters shared by all of them.
type Library struct {
	// Name identifies the library, e.g. "core65lite".
	Name string
	// RowHeight is the standard-cell row height in micrometres.
	RowHeight float64
	// SiteWidth is the placement site width in micrometres; all cell
	// widths are integer multiples of it.
	SiteWidth float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// WireCapPerUm is the estimated routing capacitance per micrometre of
	// wirelength in femtofarads, used for net-load power and delay.
	WireCapPerUm float64
	// WireResPerUm is the estimated routing resistance per micrometre in
	// ohms, used by the Elmore wire-delay model.
	WireResPerUm float64

	masters map[string]*Master
}

// NewLibrary creates an empty library with the given technology parameters.
func NewLibrary(name string, rowHeight, siteWidth, vdd float64) *Library {
	return &Library{
		Name:         name,
		RowHeight:    rowHeight,
		SiteWidth:    siteWidth,
		Vdd:          vdd,
		WireCapPerUm: 0.2,
		WireResPerUm: 1.0,
		masters:      make(map[string]*Master),
	}
}

// AddMaster registers a cell master; it returns an error when a master with
// the same name already exists or the master is malformed.
func (l *Library) AddMaster(m *Master) error {
	if m.Name == "" {
		return fmt.Errorf("celllib: master with empty name")
	}
	if _, ok := l.masters[m.Name]; ok {
		return fmt.Errorf("celllib: duplicate master %q", m.Name)
	}
	if !(m.Width > 0) {
		return fmt.Errorf("celllib: master %q has non-positive width %g", m.Name, m.Width)
	}
	if m.Filler && (m.Leakage != 0 || m.SwitchEnergy != 0) {
		return fmt.Errorf("celllib: filler master %q must have zero power", m.Name)
	}
	in := m.Inputs()
	for i, p := range m.Pins {
		for _, q := range m.Pins[:i] {
			if p.Name == q.Name {
				return &PinError{m.Name, fmt.Sprintf("declares pin %q twice", p.Name), in}
			}
		}
	}
	// Simulation, timing and power compute a cell's one output (OutputPin):
	// a second would never be driven.
	var outs []string
	for _, p := range m.Pins {
		if p.Dir == Output {
			outs = append(outs, p.Name)
		}
	}
	if m.Filler && len(outs) > 0 {
		return &PinError{m.Name, fmt.Sprintf("is a filler with outputs %v: a filler has none", outs), in}
	}
	if !m.Filler && len(outs) != 1 {
		return &PinError{m.Name, fmt.Sprintf("has outputs %v: a cell has exactly one", outs), in}
	}
	// The function must agree with the pins: the logic simulator compiles
	// each combinational master by evaluating its function over the input
	// pins, and a flip-flop needs one clock input and one data input.
	switch {
	case m.Filler:
	case m.Sequential:
		if m.Function != FuncDFF {
			return fmt.Errorf("celllib: sequential master %q has function %s, want DFF", m.Name, m.Function)
		}
		isClock := func(pin string) bool { return slices.Contains(clockPinNames, strings.ToLower(pin)) }
		k := slices.IndexFunc(in, isClock)
		if len(in) != 2 || k < 0 || isClock(in[1-k]) {
			return &PinError{m.Name, fmt.Sprintf("is a flip-flop: it needs two inputs, one clock named %s (in any case) and one data pin",
				strings.Join(clockPinNames, ", ")), in}
		}
		m.clockPin, m.dataPin = in[k], in[1-k]
	case m.Function == FuncDFF || m.Function == FuncNone:
		return fmt.Errorf("celllib: combinational master %q has function %s", m.Name, m.Function)
	case len(in) != m.Function.NumInputs():
		return fmt.Errorf("celllib: master %q function %s takes %d inputs, the cell has %d", m.Name, m.Function, m.Function.NumInputs(), len(in))
	}
	// Memoize the input pin list: simulation and timing walk Inputs once
	// per instance visit, and recomputing it allocated tens of thousands
	// of small slices per analysis on the paper benchmark.
	m.inputs = in
	l.masters[m.Name] = m
	return nil
}

// MustAddMaster is AddMaster that panics on error; used for the built-in
// library definition where failure is a programming bug.
func (l *Library) MustAddMaster(m *Master) {
	if err := l.AddMaster(m); err != nil {
		panic(err)
	}
}

// Master returns the named master, or nil when it is not in the library.
func (l *Library) Master(name string) *Master { return l.masters[name] }

// Masters returns all masters sorted by name.
func (l *Library) Masters() []*Master {
	out := make([]*Master, 0, len(l.masters))
	for _, m := range l.masters {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fillers returns the filler masters sorted by decreasing width, the order
// in which a gap-filling pass wants to try them.
func (l *Library) Fillers() []*Master {
	var out []*Master
	for _, m := range l.masters {
		if m.Filler {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Width != out[j].Width {
			return out[i].Width > out[j].Width
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SnapToSite rounds w up to the nearest multiple of the site width.
func (l *Library) SnapToSite(w float64) float64 {
	sites := int(w / l.SiteWidth)
	if float64(sites)*l.SiteWidth < w-1e-9 {
		sites++
	}
	return float64(sites) * l.SiteWidth
}
