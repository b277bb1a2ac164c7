package spice

import (
	"bufio"
	"fmt"
	"io"
)

// This file provides a minimal SPICE-deck writer so that the thermal
// networks built by package thermal can be dumped to disk and inspected —
// mirroring the paper's flow where the thermal simulator emits a SPICE
// netlist of resistors, current sources and voltage sources.
//
// Card formats written (one element per line after a '*' title comment):
//
//	R<name> <nodeA> <nodeB> <ohms>
//	I<name> <nodeFrom> <nodeTo> <amps>
//	V<name> <node> 0 <volts>
//	.end
//

// WriteDeck writes the circuit as a SPICE-like deck.
func WriteDeck(w io.Writer, c *Circuit, title string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* %s\n", title)
	for _, r := range c.resistors {
		fmt.Fprintf(bw, "R%s %s %s %g\n", r.Name, r.A, r.B, r.Ohms)
	}
	for _, i := range c.isources {
		fmt.Fprintf(bw, "I%s %s %s %g\n", i.Name, i.From, i.To, i.Amps)
	}
	for _, v := range c.vsources {
		fmt.Fprintf(bw, "V%s %s 0 %g\n", v.Name, v.Node, v.Volts)
	}
	fmt.Fprintf(bw, ".end\n")
	return bw.Flush()
}
