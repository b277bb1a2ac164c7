package sparse

import "math"

// Spectral is the separable preconditioner of the 7-point stencil of an
// nx-by-ny-by-nl structured grid (node (l, ix, iy) at (l*ny+iy)*nx + ix, the
// layout of NewStencil7) whose layers each carry one x and one y lateral
// conductance; CG.SolveCtx takes it as its preconditioner. With adiabatic
// side faces such an operator is separable: an orthonormal DCT-II of every
// layer diagonalizes the lateral coupling (the 1-D Neumann Laplacian of n
// cells has the eigenvectors cos(πk(i+½)/n) and the eigenvalues
// 2 - 2cos(πk/n)) and leaves one nl-by-nl tridiagonal per lateral mode.
// Applying M⁻¹ is three passes: the DCT of every layer, one Thomas solve
// per mode, and the inverse DCT. The transforms are orthonormal, so
// M⁻¹ = QᵀD⁻¹Q is symmetric as CG requires.
//
// The passes split over the caller's Pool; every layer and every mode has
// exactly one owner, so the result is bit-identical for any worker count.
// A Spectral value is not safe for concurrent use.
type Spectral struct {
	nx, ny, nl int
	tx, ty     *dct
	lamX, lamY []float64

	// gz holds the vertical conductance from layer l to l+1; w and invPiv
	// are the Thomas factors of every mode (node layout): y[l] += w[l]*y[l-1]
	// in the forward sweep, and invPiv[l] is the reciprocal pivot.
	gz, w, invPiv []float64

	// pool runs the passes split k ways (k = 1: inline) over the layer and
	// mode ranges of the bounds.
	pool                    *Pool
	k                       int
	layerBounds, modeBounds []int
	// scratch holds two FFT buffers of max(nx, ny) per worker.
	scratch [][2][]complex128
	// r and z carry the vectors of the apply in flight to the tasks.
	r, z                []float64
	fwd, modes, inverse func(w int) float64
}

// NewSpectral builds the preconditioner for an nx-by-ny-by-nl grid whose
// passes run on pool (the enclosing CG's pool), split over at most nl
// workers. Call Refresh before the first apply.
func NewSpectral(nx, ny, nl int, pool *Pool) *Spectral {
	nxy := nx * ny
	p := &Spectral{
		nx: nx, ny: ny, nl: nl,
		tx: newDCT(nx), ty: newDCT(ny),
		lamX:   laplacianEigenvalues(nx),
		lamY:   laplacianEigenvalues(ny),
		gz:     make([]float64, max(nl-1, 0)),
		w:      make([]float64, nxy*nl),
		invPiv: make([]float64, nxy*nl),
		pool:   pool,
		k:      1,
	}
	if k := min(pool.Workers(), nl); pool.Parallel(k) {
		p.k = k
	}
	p.layerBounds = chunkBounds(nl, p.k)
	p.modeBounds = chunkBounds(nxy, p.k)
	p.scratch = make([][2][]complex128, p.k)
	for w := range p.scratch {
		p.scratch[w] = [2][]complex128{make([]complex128, max(nx, ny)), make([]complex128, max(nx, ny))}
	}
	p.fwd = func(w int) float64 {
		for l := p.layerBounds[w]; l < p.layerBounds[w+1]; l++ {
			lo := l * nxy
			copy(p.z[lo:lo+nxy], p.r[lo:lo+nxy])
			p.transformLayer(p.z[lo:lo+nxy], p.scratch[w], false)
		}
		return 0
	}
	p.modes = func(w int) float64 {
		p.solveModes(p.modeBounds[w], p.modeBounds[w+1])
		return 0
	}
	p.inverse = func(w int) float64 {
		for l := p.layerBounds[w]; l < p.layerBounds[w+1]; l++ {
			p.transformLayer(p.z[l*nxy:(l+1)*nxy], p.scratch[w], true)
		}
		return 0
	}
	return p
}

// laplacianEigenvalues returns 2 - 2cos(πk/n), k = 0..n-1: the eigenvalues
// of the 1-D Neumann Laplacian of n cells, in DCT-II mode order.
func laplacianEigenvalues(n int) []float64 {
	lam := make([]float64, n)
	for k := range lam {
		lam[k] = 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
	}
	return lam
}

// Refresh refactors every mode's tridiagonal from per-layer values: gx and
// gy are layer l's lateral link conductances, gz[l] the vertical
// conductance from layer l to l+1 (nl-1 values) and gd[l] a uniform
// per-cell diagonal (the layer's conductance to ambient; the caller spreads
// side-face terms, which the true operator carries on the perimeter cells
// only, over the layer, and PCG absorbs the difference). A positive gd on
// one layer keeps every mode's tridiagonal irreducibly diagonally dominant,
// so its pivots are positive and the factorization cannot fail.
func (p *Spectral) Refresh(gx, gy, gz, gd []float64) {
	nxy := p.nx * p.ny
	copy(p.gz, gz)
	for l := 0; l < p.nl; l++ {
		base := gd[l]
		if l > 0 {
			base += gz[l-1]
		}
		if l+1 < p.nl {
			base += gz[l]
		}
		for ky, ly := range p.lamY {
			for kx, lx := range p.lamX {
				m := ky*p.nx + kx
				i := l*nxy + m
				piv := base + lx*gx[l] + ly*gy[l]
				if l > 0 {
					w := gz[l-1] * p.invPiv[i-nxy]
					p.w[i] = w
					piv -= w * gz[l-1]
				}
				p.invPiv[i] = 1 / piv
			}
		}
	}
}

// apply computes z = M⁻¹r; r is left untouched.
func (p *Spectral) apply(r, z []float64) {
	p.r, p.z = r, z
	p.run(p.fwd)
	p.run(p.modes)
	p.run(p.inverse)
	p.r, p.z = nil, nil
}

// run executes one pass, on the pool when it splits, else as worker 0 of a
// single-range split.
func (p *Spectral) run(task func(w int) float64) {
	if p.k > 1 {
		p.pool.Run(p.k, task)
		return
	}
	task(0)
}

// transformLayer runs the 2-D orthonormal DCT-II of one layer in place (x
// rows, then y columns), or its inverse, two lines per FFT; an odd last
// line pairs with itself.
func (p *Spectral) transformLayer(v []float64, buf [2][]complex128, inverse bool) {
	for iy := 0; iy < p.ny; iy += 2 {
		p.tx.apply(v, iy*p.nx, min(iy+1, p.ny-1)*p.nx, 1, buf, inverse)
	}
	for ix := 0; ix < p.nx; ix += 2 {
		p.ty.apply(v, ix, min(ix+1, p.nx-1), p.nx, buf, inverse)
	}
}

// solveModes runs the Thomas solve of modes [lo, hi) on the transformed
// vector, layer by layer so the inner loops run over contiguous modes.
func (p *Spectral) solveModes(lo, hi int) {
	nxy := p.nx * p.ny
	z := p.z
	for l := 1; l < p.nl; l++ {
		cur, prev, w := z[l*nxy+lo:l*nxy+hi], z[(l-1)*nxy+lo:(l-1)*nxy+hi], p.w[l*nxy+lo:l*nxy+hi]
		for i := range cur {
			cur[i] += w[i] * prev[i]
		}
	}
	top := (p.nl - 1) * nxy
	last, inv := z[top+lo:top+hi], p.invPiv[top+lo:top+hi]
	for i := range last {
		last[i] *= inv[i]
	}
	for l := p.nl - 2; l >= 0; l-- {
		g := p.gz[l]
		cur, next, inv := z[l*nxy+lo:l*nxy+hi], z[(l+1)*nxy+lo:(l+1)*nxy+hi], p.invPiv[l*nxy+lo:l*nxy+hi]
		for i := range cur {
			cur[i] = (cur[i] + g*next[i]) * inv[i]
		}
	}
}

// dct is the orthonormal DCT-II of one length n and its inverse (DCT-III),
// through one complex FFT of length n with Makhoul's even/odd reordering
// (IEEE Trans. ASSP 28(1), 1980): v holds the even-indexed inputs in order
// followed by the odd-indexed ones reversed, and
// X[k] = s(k)·Re(e^{-iπk/2n}·V[k]) with s(0) = √(1/n), s(k) = √(2/n).
// Every FFT carries two real lines, one in the real and one in the
// imaginary part.
type dct struct {
	n   int
	fft *fft
	// rot[k] = s(k)·e^{-iπk/2n}/2; irot[k] = e^{-iπk/2n}/n; is[k] = 1/s(k).
	rot, irot []complex128
	is        []float64
}

func newDCT(n int) *dct {
	d := &dct{n: n, fft: newFFT(n), rot: make([]complex128, n), irot: make([]complex128, n), is: make([]float64, n)}
	for k := 0; k < n; k++ {
		s := math.Sqrt(2 / float64(n))
		if k == 0 {
			s = math.Sqrt(1 / float64(n))
		}
		sin, cos := math.Sincos(-math.Pi * float64(k) / float64(2*n))
		e := complex(cos, sin)
		d.rot[k] = complex(s/2, 0) * e
		d.irot[k] = e / complex(float64(n), 0)
		d.is[k] = 1 / s
	}
	return d
}

// apply transforms the two lines of n values x[a], x[a+stride], ... and
// x[b], x[b+stride], ... in place (b = a transforms one line): the forward
// DCT-II, or its inverse. buf holds two scratch slices of at least n
// values.
func (d *dct) apply(x []float64, a, b, stride int, buf [2][]complex128, inverse bool) {
	n := d.n
	v := buf[0][:n]
	if !inverse {
		for i := 0; 2*i < n; i++ {
			v[i] = complex(x[a+2*i*stride], x[b+2*i*stride])
		}
		for i := 0; 2*i+1 < n; i++ {
			v[n-1-i] = complex(x[a+(2*i+1)*stride], x[b+(2*i+1)*stride])
		}
		d.fft.transform(v, buf[1])
		// Split the two real lines' spectra: Va = (F[k] + conj F[n-k])/2,
		// Vb = (F[k] - conj F[n-k])/2i.
		for k, rot := range d.rot {
			f, g := v[k], v[(n-k)%n]
			g = complex(real(g), -imag(g))
			x[a+k*stride] = real(rot * (f + g))
			x[b+k*stride] = imag(rot * (f - g))
		}
		return
	}
	// Undo the scaling, rebuild each line's conjugated half-spectrum
	// conj(V[k]) = e^{-iπk/2n}(c[k] + i·c[n-k]) (c[n] = 0), combine them as
	// line a + i·line b, and invert the FFT as a forward FFT of the
	// conjugate: its real part is line a and its imaginary part line b.
	v[0] = complex(x[a]*d.is[0], x[b]*d.is[0]) * d.irot[0]
	for k := 1; k < n; k++ {
		ca, cna := x[a+k*stride]*d.is[k], x[a+(n-k)*stride]*d.is[n-k]
		cb, cnb := x[b+k*stride]*d.is[k], x[b+(n-k)*stride]*d.is[n-k]
		v[k] = complex(ca-cnb, cna+cb) * d.irot[k]
	}
	d.fft.transform(v, buf[1])
	for i := 0; 2*i < n; i++ {
		x[a+2*i*stride], x[b+2*i*stride] = real(v[i]), imag(v[i])
	}
	for i := 0; 2*i+1 < n; i++ {
		x[a+(2*i+1)*stride], x[b+(2*i+1)*stride] = real(v[n-1-i]), imag(v[n-1-i])
	}
}

// fft is a mixed-radix complex FFT of one length n, X[k] = Σ x[j]·e^{-2πijk/n},
// in Stockham autosort form: every stage reads one buffer and writes the
// other, and the output lands in natural order. Factors of 2 run radix-4
// and radix-2 butterflies; every other prime factor p runs one generic
// O(p²) butterfly, so any length works and lengths built from small primes
// cost O(n log n).
type fft struct {
	n       int
	radices []int
	tw      []complex128 // tw[j] = e^{-2πij/n}
}

func newFFT(n int) *fft {
	f := &fft{n: n, tw: make([]complex128, n)}
	for j := range f.tw {
		sin, cos := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		f.tw[j] = complex(cos, sin)
	}
	for m := n; m > 1; {
		p := 2
		if m%4 == 0 {
			p = 4
		}
		for m%p != 0 {
			p++
		}
		f.radices = append(f.radices, p)
		m /= p
	}
	return f
}

// transform overwrites x with its DFT; tmp is scratch of at least n values.
// A stage of radix r with stride s (the product of the radices before it)
// and m = n/(s·r) writes, for every j < m and q < s, the r outputs
// dst[q+s(rj+t)] = e^{-2πi·jt/(n/s)}·Σ_i src[q+s(j+im)]·e^{-2πi·it/r}.
func (f *fft) transform(x, tmp []complex128) {
	n := f.n
	src, dst := x, tmp[:n]
	s := 1
	for _, r := range f.radices {
		m := n / (s * r)
		for j := 0; j < m; j++ {
			in := func(i int) []complex128 { return src[s*(j+i*m) : s*(j+i*m)+s] }
			out := func(t int) []complex128 { return dst[s*(r*j+t) : s*(r*j+t)+s] }
			switch r {
			case 2:
				w := f.tw[s*j]
				in0, in1, out0, out1 := in(0), in(1), out(0), out(1)
				for q := range in0 {
					a, b := in0[q], in1[q]
					out0[q] = a + b
					out1[q] = (a - b) * w
				}
			case 4:
				w1, w2, w3 := f.tw[s*j], f.tw[2*s*j], f.tw[3*s*j]
				in0, in1, in2, in3 := in(0), in(1), in(2), in(3)
				out0, out1, out2, out3 := out(0), out(1), out(2), out(3)
				for q := range in0 {
					t0, t1 := in0[q]+in2[q], in0[q]-in2[q]
					t2, d := in1[q]+in3[q], in1[q]-in3[q]
					t3 := complex(imag(d), -real(d)) // -i·(in1 - in3)
					out0[q] = t0 + t2
					out1[q] = (t1 + t3) * w1
					out2[q] = (t0 - t2) * w2
					out3[q] = (t1 - t3) * w3
				}
			default:
				// Fold the stage twiddle into the r-th roots, so each
				// output is r scaled adds of contiguous inputs.
				root := n / r // tw[root*e] = e^{-2πie/r}
				for t := 0; t < r; t++ {
					w := f.tw[s*j*t]
					o := out(t)
					clear(o)
					e := 0
					for i := 0; i < r; i++ {
						c := f.tw[root*e] * w
						for q, v := range in(i) {
							o[q] += v * c
						}
						if e += t; e >= r {
							e -= r
						}
					}
				}
			}
		}
		src, dst = dst, src
		s *= r
	}
	if n > 0 && &src[0] != &x[0] {
		copy(x, src)
	}
}
