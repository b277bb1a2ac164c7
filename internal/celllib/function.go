package celllib

import "fmt"

// Func identifies the boolean function computed by a cell master's output.
// The cycle-based logic simulator compiles each master's function into a
// truth table by evaluating it (Eval) over every input combination, which
// keeps the library and the simulator in a single consistent vocabulary.
type Func int

// Supported cell functions. Input ordering follows the master's input pin
// declaration order (A, B, C, ... / D for flip-flops / S for mux select).
const (
	// FuncNone marks cells with no logic function (filler cells).
	FuncNone Func = iota
	// FuncConst0 drives constant 0 (tie-low cell).
	FuncConst0
	// FuncConst1 drives constant 1 (tie-high cell).
	FuncConst1
	// FuncBuf is a non-inverting buffer.
	FuncBuf
	// FuncInv is an inverter.
	FuncInv
	// FuncAnd2 is a 2-input AND.
	FuncAnd2
	// FuncNand2 is a 2-input NAND.
	FuncNand2
	// FuncNand3 is a 3-input NAND.
	FuncNand3
	// FuncOr2 is a 2-input OR.
	FuncOr2
	// FuncNor2 is a 2-input NOR.
	FuncNor2
	// FuncNor3 is a 3-input NOR.
	FuncNor3
	// FuncXor2 is a 2-input XOR.
	FuncXor2
	// FuncXnor2 is a 2-input XNOR.
	FuncXnor2
	// FuncAoi21 computes !((A & B) | C).
	FuncAoi21
	// FuncOai21 computes !((A | B) & C).
	FuncOai21
	// FuncMux2 computes S ? B : A with inputs (A, B, S).
	FuncMux2
	// FuncMaj3 computes the 3-input majority (full-adder carry).
	FuncMaj3
	// FuncXor3 computes A ^ B ^ C (full-adder sum).
	FuncXor3
	// FuncDFF is a rising-edge D flip-flop; evaluation is handled by the
	// sequential machinery of the simulator, not by Eval.
	FuncDFF
)

var funcNames = map[Func]string{
	FuncNone:   "NONE",
	FuncConst0: "CONST0",
	FuncConst1: "CONST1",
	FuncBuf:    "BUF",
	FuncInv:    "INV",
	FuncAnd2:   "AND2",
	FuncNand2:  "NAND2",
	FuncNand3:  "NAND3",
	FuncOr2:    "OR2",
	FuncNor2:   "NOR2",
	FuncNor3:   "NOR3",
	FuncXor2:   "XOR2",
	FuncXnor2:  "XNOR2",
	FuncAoi21:  "AOI21",
	FuncOai21:  "OAI21",
	FuncMux2:   "MUX2",
	FuncMaj3:   "MAJ3",
	FuncXor3:   "XOR3",
	FuncDFF:    "DFF",
}

var funcByName = func() map[string]Func {
	m := make(map[string]Func, len(funcNames))
	for f, n := range funcNames {
		m[n] = f
	}
	return m
}()

// String returns the canonical textual name of the function.
func (f Func) String() string {
	if n, ok := funcNames[f]; ok {
		return n
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// ParseFunc converts a textual function name back into a Func value.
func ParseFunc(s string) (Func, error) {
	if f, ok := funcByName[s]; ok {
		return f, nil
	}
	return FuncNone, fmt.Errorf("celllib: unknown function %q", s)
}

// NumInputs returns the number of logic inputs the function expects.
// Sequential (DFF) returns 1 (the data pin); clock handling is separate.
func (f Func) NumInputs() int {
	switch f {
	case FuncNone, FuncConst0, FuncConst1:
		return 0
	case FuncBuf, FuncInv, FuncDFF:
		return 1
	case FuncAnd2, FuncNand2, FuncOr2, FuncNor2, FuncXor2, FuncXnor2:
		return 2
	case FuncNand3, FuncNor3, FuncAoi21, FuncOai21, FuncMux2, FuncMaj3, FuncXor3:
		return 3
	default:
		return 0
	}
}

// Eval computes the combinational output for the given input values.
// It panics when the number of inputs does not match NumInputs, which is
// always a netlist-construction bug. FuncDFF must not be evaluated here.
func (f Func) Eval(in []bool) bool {
	if len(in) != f.NumInputs() {
		panic(fmt.Sprintf("celllib: %s expects %d inputs, got %d", f, f.NumInputs(), len(in)))
	}
	switch f {
	case FuncConst0, FuncNone:
		return false
	case FuncConst1:
		return true
	case FuncBuf:
		return in[0]
	case FuncInv:
		return !in[0]
	case FuncAnd2:
		return in[0] && in[1]
	case FuncNand2:
		return !(in[0] && in[1])
	case FuncNand3:
		return !(in[0] && in[1] && in[2])
	case FuncOr2:
		return in[0] || in[1]
	case FuncNor2:
		return !(in[0] || in[1])
	case FuncNor3:
		return !(in[0] || in[1] || in[2])
	case FuncXor2:
		return in[0] != in[1]
	case FuncXnor2:
		return in[0] == in[1]
	case FuncAoi21:
		return !((in[0] && in[1]) || in[2])
	case FuncOai21:
		return !((in[0] || in[1]) && in[2])
	case FuncMux2:
		if in[2] {
			return in[1]
		}
		return in[0]
	case FuncMaj3:
		return (in[0] && in[1]) || (in[1] && in[2]) || (in[0] && in[2])
	case FuncXor3:
		return in[0] != in[1] != in[2]
	case FuncDFF:
		panic("celllib: FuncDFF is sequential and cannot be combinationally evaluated")
	default:
		panic(fmt.Sprintf("celllib: cannot evaluate %v", f))
	}
}
