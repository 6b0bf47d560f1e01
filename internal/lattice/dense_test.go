package lattice

import (
	"math"
	"testing"

	"mbrim/internal/rng"
)

// scalarMatVec and scalarFields are the plain one-row-at-a-time dense
// loops the row-blocked kernels must reproduce bit for bit.
func scalarMatVec(n int, data, x, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j := 0; j < n; j++ {
			acc += data[i*n+j] * x[j]
		}
		out[i] = acc
	}
}

func scalarFields(n int, data []float64, spins []int8, base, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc := 0.0
		if base != nil {
			acc = base[i]
		}
		for j := 0; j < n; j++ {
			if v := data[i*n+j]; v != 0 {
				acc += v * float64(spins[j])
			}
		}
		out[i] = acc
	}
}

// kernelMatrix is an n×n matrix whose entries span several binades, so
// the rounding of every sum depends on its order. About a third of the
// entries are zero, including interior runs. Every seventh row and the
// last row are all zero, which leaves a −0 base untouched only under
// the zero skip; 7 is coprime to the block width, so such rows land in
// every position of a block.
func kernelMatrix(n int, seed uint64) []float64 {
	r := rng.New(seed)
	data := make([]float64, n*n)
	for i := 0; i < n-1; i++ {
		if i%7 == 6 {
			continue
		}
		for j := 0; j < n; j++ {
			if r.Float64() < 0.35 {
				continue
			}
			data[i*n+j] = (r.Float64()*2 - 1) * math.Ldexp(1, r.Intn(24)-12)
		}
	}
	return data
}

// kernelWindows lists the [lo, hi) row windows to check: every window
// for small n, otherwise edges that are not multiples of the row block.
func kernelWindows(n int) [][2]int {
	var w [][2]int
	if n <= 9 {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				w = append(w, [2]int{lo, hi})
			}
		}
		return w
	}
	for _, lo := range []int{0, 1, 2, 3, 5, n / 3} {
		for _, hi := range []int{n, n - 1, n - 2, n - 3, n - 7, lo + 1, lo + rowBlock + 1} {
			if hi >= lo && hi <= n {
				w = append(w, [2]int{lo, hi})
			}
		}
	}
	return w
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDenseKernelsMatchScalarLoop pins the row-blocked dense kernels to
// the scalar row loop bit for bit, across sizes on both sides of the
// block width and the kernel chunk, ragged windows, and nil, random and
// −0 bases. Rows outside [lo, hi) must stay untouched.
func TestDenseKernelsMatchScalarLoop(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255, 256, 257, 512}
	for _, n := range sizes {
		data := kernelMatrix(n, uint64(n))
		c := FromDense(n, data, Dense, 0)
		x := randVec(n, uint64(n)+1)
		x[0] = math.Copysign(0, -1)
		spins := randSpins(n, uint64(n)+2)
		negZero := make([]float64, n)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
		}
		bases := map[string][]float64{"nil": nil, "random": randVec(n, uint64(n)+3), "-0": negZero}
		for name, base := range bases {
			for _, w := range kernelWindows(n) {
				lo, hi := w[0], w[1]
				want := make([]float64, n)
				got := make([]float64, n)
				for i := range got {
					want[i] = math.NaN()
					got[i] = math.NaN()
				}
				scalarMatVec(n, data, x, base, want, lo, hi)
				c.MatVecRange(x, base, got, lo, hi)
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("MatVecRange n=%d base=%s [%d,%d) row %d: got %v (%#x), want %v (%#x)",
							n, name, lo, hi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
				scalarFields(n, data, spins, base, want, lo, hi)
				c.FieldsRange(spins, base, got, lo, hi)
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("FieldsRange n=%d base=%s [%d,%d) row %d: got %v (%#x), want %v (%#x)",
							n, name, lo, hi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
		// All-zero rows keep a −0 base as −0: the zero skip is
		// exercised, not just the arithmetic.
		out := make([]float64, n)
		c.FieldsRange(spins, negZero, out, 0, n)
		for i := range out {
			if (i%7 == 6 || i == n-1) && (out[i] != 0 || !math.Signbit(out[i])) {
				t.Fatalf("n=%d: all-zero row %d with −0 base gave %v, want −0", n, i, out[i])
			}
		}
	}
}

// TestSerialKernelsZeroAlloc pins the serial MatVec and Fields paths at
// zero allocations: with one worker they call the backend directly and
// build no closure, below and above one KernelChunk of rows.
func TestSerialKernelsZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 2*KernelChunk + 3} {
		c := FromDense(n, randSym(n, 1, 1), Dense, 0)
		x, base, out := randVec(n, 2), randVec(n, 3), make([]float64, n)
		spins := randSpins(n, 4)
		for _, workers := range []int{0, 1} {
			if a := testing.AllocsPerRun(100, func() { MatVec(c, x, base, out, workers) }); a != 0 {
				t.Errorf("n=%d workers=%d: MatVec allocates %v per call, want 0", n, workers, a)
			}
			if a := testing.AllocsPerRun(100, func() { Fields(c, spins, base, out, workers) }); a != 0 {
				t.Errorf("n=%d workers=%d: Fields allocates %v per call, want 0", n, workers, a)
			}
		}
	}
}
