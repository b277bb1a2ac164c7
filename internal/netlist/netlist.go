// Package netlist models a flat gate-level design: library cell instances,
// the nets connecting them and the top-level ports. It also provides a
// structural "Verilog-lite" reader and writer so designs can be exchanged
// with the command-line tools.
//
// The netlist is purely logical: physical placement lives in package place,
// mirroring the paper's flow where the placed netlist is the combination of
// the synthesized netlist and the placement data produced by the back-end
// tool.
package netlist

import (
	"fmt"
	"sort"

	"thermplace/internal/celllib"
)

// PortDir is the direction of a top-level port.
type PortDir int

const (
	// In marks a primary input.
	In PortDir = iota
	// Out marks a primary output.
	Out
)

func (d PortDir) String() string {
	if d == In {
		return "input"
	}
	return "output"
}

// Port is a top-level design port.
type Port struct {
	Name string
	Dir  PortDir
	// Net is the net attached to the port.
	Net *Net
	// ord is the dense per-design ordinal, assigned at creation.
	ord int
}

// Ord returns the port's dense ordinal: its index in the design's creation
// order, stable for the lifetime of the design. Slices keyed by Ord replace
// map[*Port] lookups in the placement hot paths.
func (p *Port) Ord() int { return p.ord }

// Instance is one placed-or-unplaced occurrence of a library cell.
type Instance struct {
	// Name is the unique instance name within the design.
	Name string
	// Master is the library cell this instance instantiates.
	Master *celllib.Master
	// Unit is the logical block (e.g. "mult0") the instance belongs to.
	// The benchmark generator tags each arithmetic unit so that the placer
	// can region-constrain them and the workload model can assign per-unit
	// activities. It may be empty for glue logic. AddInstance sets it and
	// adds the instance's area to the unit's (UnitCellArea), so it must
	// not change afterwards.
	Unit string
	// conns maps pin name to the connected net.
	conns map[string]*Net
	// ord is the dense per-design ordinal, assigned at creation.
	ord int
}

// Ord returns the instance's dense ordinal: its index in the design's
// creation order (Design.Instances()[inst.Ord()] == inst), stable for the
// lifetime of the design. The placement engine keys its location and
// occupancy slices by this ordinal instead of map[*Instance] lookups.
func (inst *Instance) Ord() int { return inst.ord }

// Conn returns the net connected to the named pin, or nil.
func (inst *Instance) Conn(pin string) *Net { return inst.conns[pin] }

// IsFiller reports whether the instance is a dummy/filler cell.
func (inst *Instance) IsFiller() bool { return inst.Master.Filler }

// PinRef identifies one connection point on a net: either an instance pin
// (Inst != nil) or a top-level port (Port != nil).
type PinRef struct {
	Inst *Instance
	Pin  string
	Port *Port
}

// IsPort reports whether the reference points at a top-level port.
func (r PinRef) IsPort() bool { return r.Port != nil }

// String renders the reference as "inst.PIN" or "port".
func (r PinRef) String() string {
	if r.IsPort() {
		return r.Port.Name
	}
	return r.Inst.Name + "." + r.Pin
}

// Net is an electrical node connecting one driver to zero or more loads.
type Net struct {
	Name string
	// Driver is the single source of the net: an instance output pin or a
	// primary input port. It is zero-valued for undriven (floating) nets,
	// which Check reports as errors.
	Driver PinRef
	// Loads are the sinks: instance input pins and primary output ports.
	Loads []PinRef
	// ord is the dense per-design ordinal, assigned at creation.
	ord int
}

// Ord returns the net's dense ordinal: its index in the design's creation
// order (Design.Nets()[n.Ord()] == n), stable for the lifetime of the
// design. The placement bounding-box cache is keyed by this ordinal.
func (n *Net) Ord() int { return n.ord }

// HasDriver reports whether the net has a driver.
func (n *Net) HasDriver() bool { return n.Driver.Inst != nil || n.Driver.Port != nil }

// Design is a flat gate-level netlist bound to a cell library.
type Design struct {
	Name string
	Lib  *celllib.Library

	instances map[string]*Instance
	nets      map[string]*Net
	ports     map[string]*Port

	// instOrder and netOrder preserve creation order so that iteration,
	// file output and downstream algorithms are deterministic.
	instOrder []*Instance
	netOrder  []*Net
	portOrder []*Port

	// unitArea sums each unit's non-filler cell area, keyed by unit name
	// ("" for the untagged instances), and cellArea the area of every
	// non-filler instance. AddInstance adds each instance as it is created,
	// so every sum is accumulated in creation order and has the bits of a
	// scan over Instances(); after construction they are only read.
	unitArea map[string]float64
	cellArea float64
}

// NewDesign creates an empty design bound to lib.
func NewDesign(name string, lib *celllib.Library) *Design {
	return &Design{
		Name:      name,
		Lib:       lib,
		instances: make(map[string]*Instance),
		nets:      make(map[string]*Net),
		ports:     make(map[string]*Port),
		unitArea:  make(map[string]float64),
	}
}

// AddPort creates a top-level port and its attached net of the same name.
func (d *Design) AddPort(name string, dir PortDir) (*Port, error) {
	if _, ok := d.ports[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	p := &Port{Name: name, Dir: dir}
	net, err := d.AddNet(name)
	if err != nil {
		// A net of the same name already exists; attach to it.
		net = d.Net(name)
	}
	p.Net = net
	if dir == In {
		if net.HasDriver() {
			return nil, fmt.Errorf("netlist: net %q already driven, cannot attach input port", name)
		}
		net.Driver = PinRef{Port: p}
	} else {
		net.Loads = append(net.Loads, PinRef{Port: p})
	}
	p.ord = len(d.portOrder)
	d.ports[name] = p
	d.portOrder = append(d.portOrder, p)
	return p, nil
}

// AddNet creates a new, unconnected net.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, ok := d.nets[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	n := &Net{Name: name, ord: len(d.netOrder)}
	d.nets[name] = n
	d.netOrder = append(d.netOrder, n)
	return n, nil
}

// GetOrCreateNet returns the named net, creating it when necessary.
func (d *Design) GetOrCreateNet(name string) *Net {
	if n, ok := d.nets[name]; ok {
		return n
	}
	n, _ := d.AddNet(name)
	return n
}

// AddInstance creates an instance of the named master. The master must exist
// in the design's library.
func (d *Design) AddInstance(name, masterName, unit string) (*Instance, error) {
	if _, ok := d.instances[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	m := d.Lib.Master(masterName)
	if m == nil {
		return nil, fmt.Errorf("netlist: instance %q references unknown master %q", name, masterName)
	}
	inst := &Instance{Name: name, Master: m, Unit: unit, conns: make(map[string]*Net), ord: len(d.instOrder)}
	d.instances[name] = inst
	d.instOrder = append(d.instOrder, inst)
	if _, ok := d.unitArea[unit]; !ok {
		d.unitArea[unit] = 0
	}
	if !m.Filler {
		a := m.Area(d.Lib.RowHeight)
		d.unitArea[unit] += a
		d.cellArea += a
	}
	return inst, nil
}

// Connect attaches the instance pin to the net, registering the pin as
// driver or load according to the pin direction in the master.
func (d *Design) Connect(inst *Instance, pin string, net *Net) error {
	var dir celllib.PinDir
	found := false
	for _, p := range inst.Master.Pins {
		if p.Name == pin {
			dir = p.Dir
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("netlist: instance %q (master %s) has no pin %q", inst.Name, inst.Master.Name, pin)
	}
	if _, connected := inst.conns[pin]; connected {
		return fmt.Errorf("netlist: pin %s.%s already connected", inst.Name, pin)
	}
	inst.conns[pin] = net
	ref := PinRef{Inst: inst, Pin: pin}
	if dir == celllib.Output {
		if net.HasDriver() {
			return fmt.Errorf("netlist: net %q already driven by %s, cannot add driver %s", net.Name, net.Driver, ref)
		}
		net.Driver = ref
	} else {
		net.Loads = append(net.Loads, ref)
	}
	return nil
}

// Instance returns the named instance or nil.
func (d *Design) Instance(name string) *Instance { return d.instances[name] }

// Net returns the named net or nil.
func (d *Design) Net(name string) *Net { return d.nets[name] }

// Port returns the named port or nil.
func (d *Design) Port(name string) *Port { return d.ports[name] }

// Instances returns all instances in creation order.
func (d *Design) Instances() []*Instance { return d.instOrder }

// Nets returns all nets in creation order.
func (d *Design) Nets() []*Net { return d.netOrder }

// Ports returns all ports in creation order.
func (d *Design) Ports() []*Port { return d.portOrder }

// NumInstances returns the number of cell instances (fillers included).
func (d *Design) NumInstances() int { return len(d.instOrder) }

// NumNets returns the number of nets.
func (d *Design) NumNets() int { return len(d.netOrder) }

// Units returns the sorted list of distinct non-empty unit names.
func (d *Design) Units() []string {
	out := make([]string, 0, len(d.unitArea))
	for u := range d.unitArea {
		if u != "" {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// InstancesInUnit returns all instances tagged with the unit, in order.
func (d *Design) InstancesInUnit(unit string) []*Instance {
	var out []*Instance
	for _, inst := range d.instOrder {
		if inst.Unit == unit {
			out = append(out, inst)
		}
	}
	return out
}

// TotalCellArea returns the summed area of all non-filler instances in um^2.
func (d *Design) TotalCellArea() float64 { return d.cellArea }

// UnitCellArea returns the summed area of the unit's non-filler instances
// in um^2, in creation order; the empty unit names the untagged instances.
func (d *Design) UnitCellArea(unit string) float64 { return d.unitArea[unit] }

// Check validates structural consistency: every non-filler instance has all
// pins connected, every net with loads has a driver, and every primary
// output is driven. It returns all problems found.
func (d *Design) Check() []error {
	var errs []error
	for _, inst := range d.instOrder {
		if inst.IsFiller() {
			continue
		}
		for _, p := range inst.Master.Pins {
			if inst.Conn(p.Name) == nil {
				errs = append(errs, fmt.Errorf("netlist: pin %s.%s unconnected", inst.Name, p.Name))
			}
		}
	}
	for _, n := range d.netOrder {
		if len(n.Loads) > 0 && !n.HasDriver() {
			errs = append(errs, fmt.Errorf("netlist: net %q has loads but no driver", n.Name))
		}
	}
	return errs
}
