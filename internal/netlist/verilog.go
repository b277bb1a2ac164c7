package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"thermplace/internal/celllib"
)

// This file implements a structural "Verilog-lite" reader and writer.
// The subset supported is what gate-level netlists from a synthesis flow
// look like:
//
//	module top (a, b, z);
//	  input a, b;
//	  output z;
//	  wire n1;
//	  (* unit = "adder0" *)
//	  NAND2_X1 u1 (.A(a), .B(b), .Z(n1));
//	  INV_X1 u2 (.A(n1), .Z(z));
//	endmodule
//
// Attribute blocks carry the logical-unit tag used by the region-constrained
// placer and the workload model.

// WriteVerilog writes the design as structural Verilog-lite.
func WriteVerilog(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	// Header: module and port list.
	var portNames []string
	for _, p := range d.Ports() {
		portNames = append(portNames, p.Name)
	}
	fmt.Fprintf(bw, "module %s (%s);\n", d.Name, strings.Join(portNames, ", "))
	for _, p := range d.Ports() {
		fmt.Fprintf(bw, "  %s %s;\n", p.Dir, p.Name)
	}
	// Wire declarations for internal nets (nets that are not ports).
	for _, n := range d.Nets() {
		if d.Port(n.Name) == nil {
			fmt.Fprintf(bw, "  wire %s;\n", n.Name)
		}
	}
	// Instances.
	for _, inst := range d.Instances() {
		if inst.Unit != "" {
			fmt.Fprintf(bw, "  (* unit = \"%s\" *)\n", inst.Unit)
		}
		var conns []string
		for _, p := range inst.Master.Pins {
			if net := inst.Conn(p.Name); net != nil {
				conns = append(conns, fmt.Sprintf(".%s(%s)", p.Name, net.Name))
			}
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", inst.Master.Name, inst.Name, strings.Join(conns, ", "))
	}
	fmt.Fprintf(bw, "endmodule\n")
	return bw.Flush()
}

// verilogTokenizer produces tokens for the Verilog-lite subset.
func tokenizeVerilog(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == '(' && i+1 < len(s) && s[i+1] == '*':
			// attribute start token
			toks = append(toks, "(*")
			i += 2
		case c == '*' && i+1 < len(s) && s[i+1] == ')':
			toks = append(toks, "*)")
			i += 2
		case strings.ContainsRune("();,.=", rune(c)):
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			toks = append(toks, "\""+s[i+1:j])
			i = j + 1
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r();,.=\"", rune(s[j])) {
				// stop before attribute markers
				if s[j] == '(' || (s[j] == '*' && j+1 < len(s) && s[j+1] == ')') {
					break
				}
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

type verilogParser struct {
	toks []string
	pos  int
	lib  *celllib.Library
}

func (p *verilogParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *verilogParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *verilogParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("netlist: verilog parse error: expected %q, got %q (token %d)", tok, got, p.pos-1)
	}
	return nil
}

// ident consumes the next token as a name (module, port, wire, master,
// instance, pin or net). End of input, punctuation and string literals are
// not names, and neither is a token ending in '*': written back before a
// ')' it would tokenize as the attribute close "*)".
func (p *verilogParser) ident(what string) (string, error) {
	tok := p.next()
	if tok == "" || strings.ContainsAny(tok, "();,.=\"") || strings.HasSuffix(tok, "*") {
		return "", fmt.Errorf("netlist: verilog parse error: expected %s name, got %q (token %d)", what, tok, p.pos-1)
	}
	return tok, nil
}

// nameList parses the names of a port list or declaration up to and
// including the end token, skipping separating commas.
func (p *verilogParser) nameList(what, end string) ([]string, error) {
	var names []string
	for {
		switch p.peek() {
		case end:
			p.next()
			return names, nil
		case ",":
			p.next()
			continue
		}
		n, err := p.ident(what)
		if err != nil {
			return nil, err
		}
		names = append(names, n)
	}
}

// ParseVerilog reads one module of structural Verilog-lite and builds a
// Design bound to lib. Instance masters must all exist in lib.
func ParseVerilog(r io.Reader, lib *celllib.Library) (*Design, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: reading verilog input: %w", err)
	}
	p := &verilogParser{toks: tokenizeVerilog(string(data)), lib: lib}
	return p.parseModule()
}

func (p *verilogParser) parseModule() (*Design, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.ident("module")
	if err != nil {
		return nil, err
	}
	d := NewDesign(name, p.lib)
	// Port list: record names; directions come from the declarations below.
	if err := p.expect("("); err != nil {
		return nil, err
	}
	headerPorts, err := p.nameList("port", ")")
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	portDirs := make(map[string]PortDir)

	pendingUnit := ""
	for {
		switch tok := p.peek(); tok {
		case "endmodule":
			p.next()
			// Declare ports in header order now that directions are known.
			for _, pn := range headerPorts {
				dir, ok := portDirs[pn]
				if !ok {
					return nil, fmt.Errorf("netlist: port %q listed in header but never declared", pn)
				}
				if _, err := d.AddPort(pn, dir); err != nil {
					return nil, err
				}
			}
			return d, p.reconnectPorts(d)
		case "":
			return nil, fmt.Errorf("netlist: verilog parse error: missing endmodule")
		case "input", "output":
			p.next()
			dir := In
			if tok == "output" {
				dir = Out
			}
			names, err := p.nameList("port", ";")
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				portDirs[n] = dir
			}
		case "wire":
			p.next()
			names, err := p.nameList("wire", ";")
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				if _, err := d.AddNet(n); err != nil {
					return nil, err
				}
			}
		case "(*":
			unit, err := p.parseAttribute()
			if err != nil {
				return nil, err
			}
			pendingUnit = unit
		default:
			if err := p.parseInstance(d, pendingUnit); err != nil {
				return nil, err
			}
			pendingUnit = ""
		}
	}
}

// parseAttribute parses `(* unit = "name" *)` and returns the unit name.
func (p *verilogParser) parseAttribute() (string, error) {
	if err := p.expect("(*"); err != nil {
		return "", err
	}
	key := p.next()
	if err := p.expect("="); err != nil {
		return "", err
	}
	val := p.next()
	if err := p.expect("*)"); err != nil {
		return "", err
	}
	if key != "unit" {
		return "", fmt.Errorf("netlist: unsupported attribute %q", key)
	}
	return strings.TrimPrefix(val, "\""), nil
}

// parseInstance parses `MASTER instname (.PIN(net), ...);`.
func (p *verilogParser) parseInstance(d *Design, unit string) error {
	master, err := p.ident("master")
	if err != nil {
		return err
	}
	instName, err := p.ident("instance")
	if err != nil {
		return err
	}
	inst, err := d.AddInstance(instName, master, unit)
	if err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	for p.peek() != ")" && p.peek() != "" {
		if p.peek() == "," {
			p.next()
			continue
		}
		if err := p.expect("."); err != nil {
			return err
		}
		pin, err := p.ident("pin")
		if err != nil {
			return err
		}
		if err := p.expect("("); err != nil {
			return err
		}
		netName, err := p.ident("net")
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		net := d.GetOrCreateNet(netName)
		if err := d.Connect(inst, pin, net); err != nil {
			return err
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	return p.expect(";")
}

// reconnectPorts is a no-op hook kept for symmetry: ports are added after all
// instances, and AddPort attaches them to the already-existing nets (created
// by GetOrCreateNet during instance parsing), so nothing further is needed.
// It validates that every port ended up attached to a net.
func (p *verilogParser) reconnectPorts(d *Design) error {
	for _, port := range d.Ports() {
		if port.Net == nil {
			return fmt.Errorf("netlist: port %q not attached to any net", port.Name)
		}
	}
	return nil
}
