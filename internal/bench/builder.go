// Package bench generates the synthetic benchmark circuits used by the
// paper's evaluation: a design of roughly 12,000 standard cells composed of
// nine arithmetic units of various sizes, clocked at 1 GHz, whose hotspot
// size and position are controlled by the workload (per-unit switching
// activity).
//
// The paper used Synopsys Design Compiler on RTL; here the units are
// constructed directly at the gate level from the cell library, which gives
// the same kind of netlist a synthesis run would produce (adders built from
// full-adder gate pairs, array multipliers from AND gates plus carry-save
// adder rows, registered outputs).
package bench

import (
	"strconv"

	"thermplace/internal/netlist"
)

// builder wraps a Design under construction with naming helpers so that the
// individual unit generators stay readable.
type builder struct {
	d    *netlist.Design
	unit string
	seq  int
	clk  *netlist.Net
}

// newBuilder creates a builder adding cells tagged with the given unit name.
func newBuilder(d *netlist.Design, unit string, clk *netlist.Net) *builder {
	return &builder{d: d, unit: unit, clk: clk}
}

// newNet creates a fresh uniquely-named internal net for this unit.
func (b *builder) newNet() *netlist.Net {
	b.seq++
	return b.d.GetOrCreateNet(b.unit + "_n" + strconv.Itoa(b.seq))
}

// input creates (or returns) a primary input port net named after the unit.
func (b *builder) input(name string) *netlist.Net {
	full := b.unit + "_" + name
	if p := b.d.Port(full); p != nil {
		return p.Net
	}
	port, err := b.d.AddPort(full, netlist.In)
	if err != nil {
		panic(err)
	}
	return port.Net
}

// output creates a primary output port and attaches net to it.
func (b *builder) output(name string, net *netlist.Net) {
	full := b.unit + "_" + name
	p, err := b.d.AddPort(full, netlist.Out)
	if err != nil {
		panic(err)
	}
	// AddPort created/attached a net named after the port; to expose an
	// existing internal net we buffer it into the port net. This mirrors
	// what synthesis output buffers do and keeps one-driver-per-net intact.
	buf := b.gate("BUF_X2", map[string]*netlist.Net{"A": net, "Z": p.Net})
	_ = buf
}

// inputBus creates n primary inputs name[0..n-1] and returns their nets.
func (b *builder) inputBus(name string, n int) []*netlist.Net {
	out := make([]*netlist.Net, n)
	for i := range out {
		out[i] = b.input(name + strconv.Itoa(i))
	}
	return out
}

// outputBus exposes the nets as primary outputs name[0..n-1].
func (b *builder) outputBus(name string, nets []*netlist.Net) {
	for i, n := range nets {
		b.output(name+strconv.Itoa(i), n)
	}
}

// gate instantiates master with the given pin connections and returns the
// net on pin Z (creating it when absent from conns).
func (b *builder) gate(master string, conns map[string]*netlist.Net) *netlist.Net {
	b.seq++
	name := b.unit + "_g" + strconv.Itoa(b.seq)
	inst, err := b.d.AddInstance(name, master, b.unit)
	if err != nil {
		panic(err)
	}
	out, hasOut := conns["Z"]
	if !hasOut {
		out = b.newNet()
		conns["Z"] = out
	}
	for pin, net := range conns {
		if err := b.d.Connect(inst, pin, net); err != nil {
			panic(err)
		}
	}
	return out
}

// inv, and2, or2, xor2, mux2 are small wrappers used by the unit
// generators; they return the output net of the created gate.
func (b *builder) inv(a *netlist.Net) *netlist.Net {
	return b.gate("INV_X1", map[string]*netlist.Net{"A": a})
}

func (b *builder) and2(a, c *netlist.Net) *netlist.Net {
	return b.gate("AND2_X1", map[string]*netlist.Net{"A": a, "B": c})
}

func (b *builder) or2(a, c *netlist.Net) *netlist.Net {
	return b.gate("OR2_X1", map[string]*netlist.Net{"A": a, "B": c})
}

func (b *builder) xor2(a, c *netlist.Net) *netlist.Net {
	return b.gate("XOR2_X1", map[string]*netlist.Net{"A": a, "B": c})
}

func (b *builder) mux2(a, c, s *netlist.Net) *netlist.Net {
	return b.gate("MUX2_X1", map[string]*netlist.Net{"A": a, "B": c, "S": s})
}

// dff registers d on the unit clock and returns the Q-equivalent output net.
// The library DFF output pin is Z to keep single-output masters uniform.
func (b *builder) dff(d *netlist.Net) *netlist.Net {
	return b.gate("DFF_X1", map[string]*netlist.Net{"D": d, "CK": b.clk})
}

// register registers every net in the bus and returns the registered bus.
func (b *builder) register(bus []*netlist.Net) []*netlist.Net {
	out := make([]*netlist.Net, len(bus))
	for i, n := range bus {
		out[i] = b.dff(n)
	}
	return out
}

// halfAdder returns (sum, carry) built from XOR2 + AND2.
func (b *builder) halfAdder(a, c *netlist.Net) (sum, carry *netlist.Net) {
	return b.xor2(a, c), b.and2(a, c)
}

// fullAdder returns (sum, carry) built from the XOR3 and MAJ3 library cells,
// the classic two-cell full-adder mapping.
func (b *builder) fullAdder(a, c, cin *netlist.Net) (sum, carry *netlist.Net) {
	sum = b.gate("XOR3_X1", map[string]*netlist.Net{"A": a, "B": c, "C": cin})
	carry = b.gate("MAJ3_X1", map[string]*netlist.Net{"A": a, "B": c, "C": cin})
	return sum, carry
}

// rippleAdder adds the two equal-width buses and returns the sum bits plus
// the final carry-out. cin may be nil for no carry input.
func (b *builder) rippleAdder(a, c []*netlist.Net, cin *netlist.Net) (sum []*netlist.Net, cout *netlist.Net) {
	if len(a) != len(c) {
		panic("bench: rippleAdder operand width mismatch")
	}
	sum = make([]*netlist.Net, len(a))
	carry := cin
	for i := range a {
		if carry == nil {
			sum[i], carry = b.halfAdder(a[i], c[i])
		} else {
			sum[i], carry = b.fullAdder(a[i], c[i], carry)
		}
	}
	return sum, carry
}

// carrySelectAdder adds the buses in fixed-size blocks computing each block
// for carry-in 0 and 1 and selecting with the incoming carry; this is the
// "faster, bigger" adder used for the wide adder unit.
func (b *builder) carrySelectAdder(a, c []*netlist.Net, blockSize int) (sum []*netlist.Net, cout *netlist.Net) {
	if len(a) != len(c) {
		panic("bench: carrySelectAdder operand width mismatch")
	}
	n := len(a)
	sum = make([]*netlist.Net, n)
	var carry *netlist.Net
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		if lo == 0 {
			s, co := b.rippleAdder(a[lo:hi], c[lo:hi], nil)
			copy(sum[lo:hi], s)
			carry = co
			continue
		}
		zero := b.gate("TIE0_X1", map[string]*netlist.Net{})
		one := b.gate("TIE1_X1", map[string]*netlist.Net{})
		s0, co0 := b.rippleAdder(a[lo:hi], c[lo:hi], zero)
		s1, co1 := b.rippleAdder(a[lo:hi], c[lo:hi], one)
		for i := lo; i < hi; i++ {
			sum[i] = b.mux2(s0[i-lo], s1[i-lo], carry)
		}
		carry = b.mux2(co0, co1, carry)
	}
	return sum, carry
}

// arrayMultiplier multiplies the two buses with a carry-save array and a
// final ripple stage, returning len(a)+len(c) product bits.
func (b *builder) arrayMultiplier(a, c []*netlist.Net) []*netlist.Net {
	n, m := len(a), len(c)
	// Partial products pp[j][i] = a[i] AND c[j].
	pp := make([][]*netlist.Net, m)
	for j := 0; j < m; j++ {
		pp[j] = make([]*netlist.Net, n)
		for i := 0; i < n; i++ {
			pp[j][i] = b.and2(a[i], c[j])
		}
	}
	product := make([]*netlist.Net, n+m)
	// Row accumulation. After processing row j, acc[i] holds the running-sum
	// bit of weight j+i and top holds the bit of weight j+n (the carry-out
	// of the row). The lowest accumulator bit of each row is final and
	// becomes product[j].
	acc := make([]*netlist.Net, n)
	copy(acc, pp[0])
	var top *netlist.Net
	product[0] = acc[0]
	for j := 1; j < m; j++ {
		row := pp[j]
		next := make([]*netlist.Net, n)
		var carry *netlist.Net
		for i := 0; i < n; i++ {
			// The running-sum bit with the same weight as row[i] is
			// acc[i+1] (or the previous row's carry-out for the top column).
			hi := top
			if i+1 < n {
				hi = acc[i+1]
			}
			switch {
			case hi == nil && carry == nil:
				next[i] = row[i]
			case hi == nil:
				next[i], carry = b.halfAdder(row[i], carry)
			case carry == nil:
				next[i], carry = b.halfAdder(row[i], hi)
			default:
				next[i], carry = b.fullAdder(row[i], hi, carry)
			}
		}
		acc, top = next, carry
		product[j] = acc[0]
	}
	// Remaining accumulator bits are the top product bits.
	for i := 1; i < n; i++ {
		product[m+i-1] = acc[i]
	}
	if top != nil {
		product[n+m-1] = top
	} else {
		// Single-row multiply (m == 1): the top bit is constant zero.
		product[n+m-1] = b.gate("TIE0_X1", map[string]*netlist.Net{})
	}
	return product
}
