package spice

import (
	"fmt"
	"math"
	"sort"
)

// Method selects the linear solver used for the nodal equations.
type Method int

const (
	// MethodCG is Jacobi preconditioned conjugate gradients; the default and
	// the right choice for the large sparse symmetric systems produced by
	// the 3-D thermal grid.
	MethodCG Method = iota
	// MethodGaussSeidel is plain Gauss-Seidel relaxation.
	MethodGaussSeidel
	// MethodDense is dense Cholesky factorization; only sensible for small
	// circuits (a few thousand nodes) and for cross-checking the iterative
	// solvers.
	MethodDense
)

func (m Method) String() string {
	switch m {
	case MethodCG:
		return "cg"
	case MethodGaussSeidel:
		return "gauss-seidel"
	case MethodDense:
		return "dense-cholesky"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SolveOptions tunes the solver.
type SolveOptions struct {
	Method Method
	// Tolerance is the relative residual at which iterative methods stop.
	// Zero means the default of 1e-9.
	Tolerance float64
	// MaxIterations bounds iterative methods. Zero means 10 * number of
	// unknowns (CG) or 20 * number of unknowns (Gauss-Seidel).
	MaxIterations int
}

// Solution is the result of solving the circuit.
type Solution struct {
	// Voltages maps every node (including ground and voltage-source nodes)
	// to its solved voltage.
	Voltages map[string]float64
	// Iterations is the number of iterations the solver used (0 for dense).
	Iterations int
	// Residual is the final relative residual of the iterative solve.
	Residual float64
	// Method is the solver that produced the solution.
	Method Method
}

// assembled is the nodal system over the unknown nodes.
type assembled struct {
	idx    map[string]int // unknown node -> index
	order  []string       // index -> node name
	known  map[string]float64
	diag   []float64
	offIdx [][]int32
	offVal [][]float64
	rhs    []float64
}

// Solve computes all node voltages.
func (c *Circuit) Solve(opts SolveOptions) (*Solution, error) {
	sys, err := c.assemble()
	if err != nil {
		return nil, err
	}
	n := len(sys.order)
	sol := &Solution{Voltages: make(map[string]float64, len(c.nodes)), Method: opts.Method}
	for node, v := range sys.known {
		sol.Voltages[node] = v
	}
	if n == 0 {
		return sol, nil
	}

	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	var x []float64
	switch opts.Method {
	case MethodCG:
		maxIter := opts.MaxIterations
		if maxIter <= 0 {
			maxIter = 10 * n
		}
		x, sol.Iterations, sol.Residual, err = solveCG(sys, tol, maxIter)
	case MethodGaussSeidel:
		maxIter := opts.MaxIterations
		if maxIter <= 0 {
			maxIter = 20 * n
		}
		x, sol.Iterations, sol.Residual, err = solveGaussSeidel(sys, tol, maxIter)
	case MethodDense:
		x, err = solveDenseCholesky(sys)
	default:
		err = fmt.Errorf("spice: unknown solve method %v", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	for i, node := range sys.order {
		sol.Voltages[node] = x[i]
	}
	return sol, nil
}

// assemble builds the reduced nodal system. Voltage-source nodes and ground
// are "known"; all other nodes are unknowns. It verifies that every unknown
// node has a resistive path to some known node (otherwise the system is
// singular) and that no node carries two voltage sources.
func (c *Circuit) assemble() (*assembled, error) {
	known := map[string]float64{Ground: 0}
	for _, vs := range c.vsources {
		if prev, ok := known[vs.Node]; ok && prev != vs.Volts {
			return nil, fmt.Errorf("spice: node %q driven to both %g and %g volts", vs.Node, prev, vs.Volts)
		}
		known[vs.Node] = vs.Volts
	}
	sys := &assembled{idx: make(map[string]int, len(c.nodes)), known: known}
	nodes := c.Nodes()
	nodeID := make(map[string]int, len(nodes))
	for id, node := range nodes {
		nodeID[node] = id
		if _, isKnown := known[node]; !isKnown {
			sys.idx[node] = len(sys.order)
			sys.order = append(sys.order, node)
		}
	}
	n := len(sys.order)
	sys.diag = make([]float64, n)
	sys.rhs = make([]float64, n)
	sys.offIdx = make([][]int32, n)
	sys.offVal = make([][]float64, n)

	// Reachability check: every unknown must reach a known node through
	// resistors. The resistor graph is scanned over integer node ids in CSR
	// form; node names are only touched once to build nodeID above.
	total := len(nodes)
	adjPtr := make([]int32, total+1)
	for _, r := range c.resistors {
		adjPtr[nodeID[r.A]+1]++
		adjPtr[nodeID[r.B]+1]++
	}
	for i := 0; i < total; i++ {
		adjPtr[i+1] += adjPtr[i]
	}
	adj := make([]int32, 2*len(c.resistors))
	cursor := make([]int32, total)
	copy(cursor, adjPtr[:total])
	for _, r := range c.resistors {
		a, b := nodeID[r.A], nodeID[r.B]
		adj[cursor[a]] = int32(b)
		cursor[a]++
		adj[cursor[b]] = int32(a)
		cursor[b]++
	}
	reached := make([]bool, total)
	queue := make([]int32, 0, total)
	for node := range known {
		if id, ok := nodeID[node]; ok && !reached[id] {
			reached[id] = true
			queue = append(queue, int32(id))
		}
	}
	// Sort the seeds so the BFS visits nodes in a reproducible order
	// regardless of the map iteration above.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for k := adjPtr[cur]; k < adjPtr[cur+1]; k++ {
			if nb := adj[k]; !reached[nb] {
				reached[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for _, node := range sys.order {
		if !reached[nodeID[node]] {
			return nil, fmt.Errorf("spice: node %q has no resistive path to a voltage reference (floating)", node)
		}
	}

	// Pre-size every row's off-diagonal storage so the fill below never
	// reallocates mid-append.
	offCount := make([]int32, n)
	for _, r := range c.resistors {
		ia, aUnknown := sys.idx[r.A]
		ib, bUnknown := sys.idx[r.B]
		if aUnknown && bUnknown {
			offCount[ia]++
			offCount[ib]++
		}
	}
	for i := 0; i < n; i++ {
		if offCount[i] > 0 {
			sys.offIdx[i] = make([]int32, 0, offCount[i])
			sys.offVal[i] = make([]float64, 0, offCount[i])
		}
	}

	addOff := func(i, j int, g float64) {
		sys.offIdx[i] = append(sys.offIdx[i], int32(j))
		sys.offVal[i] = append(sys.offVal[i], -g)
	}
	for _, r := range c.resistors {
		g := 1 / r.Ohms
		ia, aUnknown := sys.idx[r.A]
		ib, bUnknown := sys.idx[r.B]
		if aUnknown {
			sys.diag[ia] += g
			if bUnknown {
				addOff(ia, ib, g)
			} else {
				sys.rhs[ia] += g * known[r.B]
			}
		}
		if bUnknown {
			sys.diag[ib] += g
			if aUnknown {
				addOff(ib, ia, g)
			} else {
				sys.rhs[ib] += g * known[r.A]
			}
		}
	}
	for _, is := range c.isources {
		if i, ok := sys.idx[is.To]; ok {
			sys.rhs[i] += is.Amps
		}
		if i, ok := sys.idx[is.From]; ok {
			sys.rhs[i] -= is.Amps
		}
	}
	for i := range sys.diag {
		if sys.diag[i] <= 0 {
			return nil, fmt.Errorf("spice: node %q has no resistive connection (zero conductance)", sys.order[i])
		}
	}
	return sys, nil
}

// matVec computes y = A*x for the assembled sparse system.
func (s *assembled) matVec(x, y []float64) {
	for i := range y {
		v := s.diag[i] * x[i]
		idxs, vals := s.offIdx[i], s.offVal[i]
		for k, j := range idxs {
			v += vals[k] * x[j]
		}
		y[i] = v
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// solveCG solves the system with Jacobi preconditioned conjugate gradients.
func solveCG(s *assembled, tol float64, maxIter int) (x []float64, iters int, residual float64, err error) {
	n := len(s.rhs)
	x = make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	copy(r, s.rhs)
	bnorm := norm(s.rhs)
	if bnorm == 0 {
		return x, 0, 0, nil
	}
	for i := range z {
		z[i] = r[i] / s.diag[i]
	}
	copy(p, z)
	rz := dot(r, z)
	for iters = 0; iters < maxIter; iters++ {
		residual = norm(r) / bnorm
		if residual <= tol {
			return x, iters, residual, nil
		}
		s.matVec(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, iters, residual, fmt.Errorf("spice: CG breakdown (non-positive curvature); system not positive definite")
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		for i := range z {
			z[i] = r[i] / s.diag[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	residual = norm(r) / bnorm
	if residual > tol {
		return nil, iters, residual, fmt.Errorf("spice: CG did not converge in %d iterations (residual %g)", maxIter, residual)
	}
	return x, iters, residual, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveGaussSeidel solves the system with Gauss-Seidel relaxation.
func solveGaussSeidel(s *assembled, tol float64, maxIter int) (x []float64, iters int, residual float64, err error) {
	n := len(s.rhs)
	x = make([]float64, n)
	r := make([]float64, n)
	bnorm := norm(s.rhs)
	if bnorm == 0 {
		return x, 0, 0, nil
	}
	for iters = 0; iters < maxIter; iters++ {
		for i := 0; i < n; i++ {
			sum := s.rhs[i]
			idxs, vals := s.offIdx[i], s.offVal[i]
			for k, j := range idxs {
				sum -= vals[k] * x[j]
			}
			x[i] = sum / s.diag[i]
		}
		// Residual check every few sweeps to keep the cost dominated by the
		// relaxation itself.
		if iters%8 == 0 || iters == maxIter-1 {
			s.matVec(x, r)
			for i := range r {
				r[i] = s.rhs[i] - r[i]
			}
			residual = norm(r) / bnorm
			if residual <= tol {
				return x, iters + 1, residual, nil
			}
		}
	}
	return nil, iters, residual, fmt.Errorf("spice: Gauss-Seidel did not converge in %d iterations (residual %g)", maxIter, residual)
}

// solveDenseCholesky solves the system by dense Cholesky factorization.
func solveDenseCholesky(s *assembled) ([]float64, error) {
	n := len(s.rhs)
	if n > 6000 {
		return nil, fmt.Errorf("spice: dense solver refuses %d unknowns; use MethodCG", n)
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = s.diag[i]
		idxs, vals := s.offIdx[i], s.offVal[i]
		for k, j := range idxs {
			a[i][j] += vals[k]
		}
	}
	// Cholesky: A = L * L^T.
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("spice: matrix not positive definite at row %d", i)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	// Forward substitution L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := s.rhs[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * y[k]
		}
		y[i] = sum / l[i][i]
	}
	// Back substitution L^T*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x, nil
}
