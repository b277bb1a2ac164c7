package celllib

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements a tiny "Liberty-lite" text format so that cell
// libraries can be written to disk and read back by the command-line tools.
// The format is a heavily simplified cousin of the Synopsys Liberty (.lib)
// syntax: nested group(name) { ... } blocks with attribute : value;
// statements. Only the attributes this flow needs are supported.

// WriteLiberty writes the library in Liberty-lite form to w.
func WriteLiberty(w io.Writer, lib *Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "library(%s) {\n", lib.Name)
	fmt.Fprintf(bw, "  voltage : %g;\n", lib.Vdd)
	fmt.Fprintf(bw, "  row_height : %g;\n", lib.RowHeight)
	fmt.Fprintf(bw, "  site_width : %g;\n", lib.SiteWidth)
	fmt.Fprintf(bw, "  wire_cap_per_um : %g;\n", lib.WireCapPerUm)
	fmt.Fprintf(bw, "  wire_res_per_um : %g;\n", lib.WireResPerUm)
	for _, m := range lib.Masters() {
		fmt.Fprintf(bw, "  cell(%s) {\n", m.Name)
		fmt.Fprintf(bw, "    width : %g;\n", m.Width)
		fmt.Fprintf(bw, "    function : \"%s\";\n", m.Function)
		if m.DriveRes != 0 {
			fmt.Fprintf(bw, "    drive_res : %g;\n", m.DriveRes)
		}
		if m.Intrinsic != 0 {
			fmt.Fprintf(bw, "    intrinsic_delay : %g;\n", m.Intrinsic)
		}
		if m.Leakage != 0 {
			fmt.Fprintf(bw, "    leakage : %g;\n", m.Leakage)
		}
		if m.SwitchEnergy != 0 {
			fmt.Fprintf(bw, "    switch_energy : %g;\n", m.SwitchEnergy)
		}
		if m.Sequential {
			fmt.Fprintf(bw, "    sequential : true;\n")
		}
		if m.Filler {
			fmt.Fprintf(bw, "    filler : true;\n")
		}
		// Stable pin order: inputs in declaration order, then outputs.
		pins := append([]Pin{}, m.Pins...)
		sort.SliceStable(pins, func(i, j int) bool { return pins[i].Dir < pins[j].Dir })
		for _, p := range pins {
			if p.Dir == Input {
				fmt.Fprintf(bw, "    pin(%s) { direction : input; cap : %g; }\n", p.Name, p.Cap)
			} else {
				fmt.Fprintf(bw, "    pin(%s) { direction : output; }\n", p.Name)
			}
		}
		fmt.Fprintf(bw, "  }\n")
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

// libertyParser is a small recursive-descent parser over a token stream.
type libertyParser struct {
	toks []string
	pos  int
}

// ParseLiberty reads a Liberty-lite library from r.
func ParseLiberty(r io.Reader) (*Library, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("celllib: reading liberty input: %w", err)
	}
	p := &libertyParser{toks: tokenizeLiberty(string(data))}
	return p.parseLibrary()
}

// tokenizeLiberty splits the input into tokens: identifiers/numbers, quoted
// strings (quotes stripped) and the punctuation ( ) { } : ; .
func tokenizeLiberty(s string) []string {
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
		case strings.ContainsRune("(){}:;", rune(c)):
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			toks = append(toks, s[i+1:j])
			i = j + 1
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r(){}:;\"", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

func (p *libertyParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *libertyParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *libertyParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("celllib: liberty parse error: expected %q, got %q (token %d)", tok, got, p.pos-1)
	}
	return nil
}

// parseGroupHeader parses `keyword ( name ) {` and returns the name.
func (p *libertyParser) parseGroupHeader(keyword string) (string, error) {
	if err := p.expect(keyword); err != nil {
		return "", err
	}
	if err := p.expect("("); err != nil {
		return "", err
	}
	// A name must write back as itself: a bare token, not punctuation, a
	// comment or a quoted string holding delimiters.
	name := p.next()
	if name == "" || strings.ContainsAny(name, " \t\n\r(){}:;\"") || strings.HasPrefix(name, "//") {
		return "", fmt.Errorf("celllib: liberty parse error: bad %s name %q (token %d)", keyword, name, p.pos-1)
	}
	if err := p.expect(")"); err != nil {
		return "", err
	}
	if err := p.expect("{"); err != nil {
		return "", err
	}
	return name, nil
}

func (p *libertyParser) parseLibrary() (*Library, error) {
	name, err := p.parseGroupHeader("library")
	if err != nil {
		return nil, err
	}
	lib := NewLibrary(name, 2.0, 0.2, 1.0)
	for {
		switch p.peek() {
		case "}":
			p.next()
			return lib, nil
		case "":
			return nil, fmt.Errorf("celllib: liberty parse error: unexpected end of input in library %q", name)
		case "cell":
			m, err := p.parseCell()
			if err != nil {
				return nil, err
			}
			if err := lib.AddMaster(m); err != nil {
				return nil, err
			}
		default:
			attr, val, err := p.parseAttribute()
			if err != nil {
				return nil, err
			}
			if err := applyLibraryAttr(lib, attr, val); err != nil {
				return nil, err
			}
		}
	}
}

func applyLibraryAttr(lib *Library, attr, val string) error {
	var num *float64
	positive := true // the supply voltage and the row and site dimensions
	switch attr {
	case "voltage":
		num = &lib.Vdd
	case "row_height":
		num = &lib.RowHeight
	case "site_width":
		num = &lib.SiteWidth
	case "wire_cap_per_um":
		num, positive = &lib.WireCapPerUm, false
	case "wire_res_per_um":
		num, positive = &lib.WireResPerUm, false
	default:
		return fmt.Errorf("celllib: unknown library attribute %q", attr)
	}
	f, err := parseNumber(val, positive)
	if err != nil {
		return fmt.Errorf("celllib: library attribute %s: %w", attr, err)
	}
	*num = f
	return nil
}

// parseNumber parses the value of a numeric attribute. Every quantity the
// format carries is a finite, non-negative physical value; positive also
// rejects zero (the supply voltage and the cell and site dimensions).
func parseNumber(val string, positive bool) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	switch {
	case err != nil:
		return 0, err
	case math.IsNaN(f) || math.IsInf(f, 0):
		return 0, fmt.Errorf("%q is not finite", val)
	case positive && f <= 0:
		return 0, fmt.Errorf("%q is not positive", val)
	case f < 0:
		return 0, fmt.Errorf("%q is negative", val)
	}
	return f, nil
}

// parseAttribute parses `name : value ;` and returns (name, value).
func (p *libertyParser) parseAttribute() (string, string, error) {
	name := p.next()
	if err := p.expect(":"); err != nil {
		return "", "", err
	}
	val := p.next()
	if err := p.expect(";"); err != nil {
		return "", "", err
	}
	return name, val, nil
}

func (p *libertyParser) parseCell() (*Master, error) {
	name, err := p.parseGroupHeader("cell")
	if err != nil {
		return nil, err
	}
	m := &Master{Name: name}
	for {
		switch p.peek() {
		case "}":
			p.next()
			return m, nil
		case "":
			return nil, fmt.Errorf("celllib: liberty parse error: unexpected end of input in cell %q", name)
		case "pin":
			pin, err := p.parsePin()
			if err != nil {
				return nil, err
			}
			m.Pins = append(m.Pins, pin)
		default:
			attr, val, err := p.parseAttribute()
			if err != nil {
				return nil, err
			}
			if err := applyCellAttr(m, attr, val); err != nil {
				return nil, err
			}
		}
	}
}

func applyCellAttr(m *Master, attr, val string) error {
	var num *float64
	switch attr {
	case "width":
		num = &m.Width
	case "drive_res":
		num = &m.DriveRes
	case "intrinsic_delay":
		num = &m.Intrinsic
	case "leakage":
		num = &m.Leakage
	case "switch_energy":
		num = &m.SwitchEnergy
	case "function":
		fn, err := ParseFunc(val)
		if err != nil {
			return err
		}
		m.Function = fn
		return nil
	case "sequential":
		m.Sequential = val == "true"
		return nil
	case "filler":
		m.Filler = val == "true"
		return nil
	default:
		return fmt.Errorf("celllib: unknown cell attribute %q in cell %q", attr, m.Name)
	}
	f, err := parseNumber(val, attr == "width")
	if err != nil {
		return fmt.Errorf("celllib: cell %q attribute %s: %w", m.Name, attr, err)
	}
	*num = f
	return nil
}

func (p *libertyParser) parsePin() (Pin, error) {
	name, err := p.parseGroupHeader("pin")
	if err != nil {
		return Pin{}, err
	}
	pin := Pin{Name: name}
	for {
		switch p.peek() {
		case "}":
			p.next()
			return pin, nil
		case "":
			return Pin{}, fmt.Errorf("celllib: liberty parse error: unexpected end of input in pin %q", name)
		default:
			attr, val, err := p.parseAttribute()
			if err != nil {
				return Pin{}, err
			}
			switch attr {
			case "direction":
				if val == "input" {
					pin.Dir = Input
				} else if val == "output" {
					pin.Dir = Output
				} else {
					return Pin{}, fmt.Errorf("celllib: pin %q has unknown direction %q", name, val)
				}
			case "cap":
				f, err := parseNumber(val, false)
				if err != nil {
					return Pin{}, fmt.Errorf("celllib: pin %q cap: %w", name, err)
				}
				pin.Cap = f
			default:
				return Pin{}, fmt.Errorf("celllib: unknown pin attribute %q in pin %q", attr, name)
			}
		}
	}
}
