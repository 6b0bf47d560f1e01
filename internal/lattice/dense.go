package lattice

import "fmt"

// dense is the row-major n×n layout.
type dense struct {
	n    int
	data []float64 // row-major, symmetric, zero diagonal
	nnz  int
}

// FromDense builds a backend over a row-major n×n symmetric matrix.
// div, when nonzero and not 1, divides every entry — the resistor
// normalization the BRIM machines apply (Ĵ = J/scale); division, not
// multiplication by a reciprocal, so the stored values match the
// historical per-engine loops bit for bit. With div 0 or 1 the dense
// layouts alias data instead of copying — callers must not mutate it.
// Auto resolves by measured density.
func FromDense(n int, data []float64, kind Kind, div float64) Coupling {
	if n <= 0 || len(data) != n*n {
		panic(fmt.Sprintf("lattice: FromDense with %d entries for n=%d", len(data), n))
	}
	nnz := CountNNZ(data)
	switch Resolve(kind, n, nnz) {
	case CSR:
		return csrFromDense(n, data, div)
	case Blocked:
		return &blocked{dense{n: n, data: scaleDense(data, div), nnz: nnz}}
	default:
		return &dense{n: n, data: scaleDense(data, div), nnz: nnz}
	}
}

// scaleDense returns data/div, aliasing data when div is 0 or 1.
func scaleDense(data []float64, div float64) []float64 {
	if div == 0 || div == 1 {
		return data
	}
	scaled := make([]float64, len(data))
	for i, v := range data {
		scaled[i] = v / div
	}
	return scaled
}

func (d *dense) N() int   { return d.n }
func (d *dense) NNZ() int { return d.nnz }

func (d *dense) Kind() Kind { return Dense }

func (d *dense) row(i int) []float64 { return d.data[i*d.n : (i+1)*d.n] }

func (d *dense) RowNNZ(i int) int {
	c := 0
	for _, v := range d.row(i) {
		if v != 0 {
			c++
		}
	}
	return c
}

func (d *dense) Scan(i int, fn func(j int, v float64)) {
	for j, v := range d.row(i) {
		if v != 0 {
			fn(j, v)
		}
	}
}

// rowBlock is how many rows the dense kernels accumulate at once: a
// block runs rowBlock independent add chains instead of one serial
// chain, which the float-add latency bounds, and reads x[j] once per
// column for all of them (the package comment says why the bits do not
// change). Serial, interleaved on a 2-vCPU host: MatVec at n=64 took
// 2.2 µs with 4 rows against 2.5 µs with 8 (3.6 µs unblocked); Fields
// at n=512 took 0.30 ms with 4 against 0.24 ms with 8 (0.49 ms
// unblocked). 4 wins on the 64-row chip blocks the multichip machine
// runs.
const rowBlock = 4

func (d *dense) MatVecRange(x, base, out []float64, lo, hi int) {
	n := d.n
	x = x[:n]
	i := lo
	for ; i+rowBlock <= hi; i += rowBlock {
		var a0, a1, a2, a3 float64
		if base != nil {
			a0, a1, a2, a3 = base[i], base[i+1], base[i+2], base[i+3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = dot4(x, d.data[i*n:(i+rowBlock)*n], a0, a1, a2, a3)
	}
	for ; i < hi; i++ {
		row := d.data[i*n:][:len(x)]
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j, xj := range x {
			acc += row[j] * xj
		}
		out[i] = acc
	}
}

// dot4 adds row·x to a0…a3 for the four consecutive rows of block,
// each row in ascending column order. It is a function of its own so
// the inner loop holds only its own pointers in registers.
func dot4(x, block []float64, a0, a1, a2, a3 float64) (float64, float64, float64, float64) {
	n := len(x)
	r0 := block[:n]
	r1 := block[n:][:n]
	r2 := block[2*n:][:n]
	r3 := block[3*n:][:n]
	for j, xj := range x {
		a0 += r0[j] * xj
		a1 += r1[j] * xj
		a2 += r2[j] * xj
		a3 += r3[j] * xj
	}
	return a0, a1, a2, a3
}

// FieldsRange is MatVecRange's row blocking with the zero skip kept per
// row: a row adds J_ij·σ_j only where its own J_ij is nonzero.
func (d *dense) FieldsRange(spins []int8, base, out []float64, lo, hi int) {
	n := d.n
	spins = spins[:n]
	i := lo
	for ; i+rowBlock <= hi; i += rowBlock {
		var a0, a1, a2, a3 float64
		if base != nil {
			a0, a1, a2, a3 = base[i], base[i+1], base[i+2], base[i+3]
		}
		out[i], out[i+1], out[i+2], out[i+3] = fields4(spins, d.data[i*n:(i+rowBlock)*n], a0, a1, a2, a3)
	}
	for ; i < hi; i++ {
		row := d.data[i*n:][:len(spins)]
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j, s := range spins {
			if v := row[j]; v != 0 {
				acc += v * float64(s)
			}
		}
		out[i] = acc
	}
}

// fields4 is dot4 over a spin vector, skipping each row's zero
// couplings.
func fields4(spins []int8, block []float64, a0, a1, a2, a3 float64) (float64, float64, float64, float64) {
	n := len(spins)
	r0 := block[:n]
	r1 := block[n:][:n]
	r2 := block[2*n:][:n]
	r3 := block[3*n:][:n]
	for j, s := range spins {
		sj := float64(s)
		if v := r0[j]; v != 0 {
			a0 += v * sj
		}
		if v := r1[j]; v != 0 {
			a1 += v * sj
		}
		if v := r2[j]; v != 0 {
			a2 += v * sj
		}
		if v := r3[j]; v != 0 {
			a3 += v * sj
		}
	}
	return a0, a1, a2, a3
}

// FlipFanout walks the whole row, zeros included, exactly as the dense
// model's ApplyFlip always has: adding J_kj·d = ±0 to a field that is
// never −0 is the identity, so the result matches the zero-skipping
// backends bit for bit while keeping the dense O(N) cost model.
func (d *dense) FlipFanout(fields []float64, k int, delta float64) {
	for j, v := range d.row(k) {
		fields[j] += v * delta
	}
}

func (d *dense) FlipDelta(spins []int8, fields []float64, k int, muH float64) float64 {
	return flipDelta(spins, fields, k, muH)
}
