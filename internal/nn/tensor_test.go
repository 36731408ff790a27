package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The reference kernels are the plain scalar loops that define the kernel
// contract (see the package doc). The blocked kernel must reproduce them bit
// for bit, including which products are skipped.

func refMatMul(out, a, b *Matrix) {
	out.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k := 0; k < a.C; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j := range br {
				or[j] += av * br[j]
			}
		}
	}
}

func refMatMulAT(out, a, b *Matrix) {
	out.Zero()
	for k := 0; k < a.R; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			or := out.Row(i)
			for j := range br {
				or[j] += av * br[j]
			}
		}
	}
}

func refMatMulBT(out, a, b *Matrix) {
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.R; j++ {
			br := b.Row(j)
			var s float32
			for k := range ar {
				s += ar[k] * br[k]
			}
			or[j] = s
		}
	}
}

// fillSparse fills m with normal values, a zeroFrac share of them zero and
// half of those zeros negative.
func fillSparse(m *Matrix, r *rng.RNG, zeroFrac float64) {
	for i := range m.Data {
		switch {
		case r.Float64() >= zeroFrac:
			m.Data[i] = float32(r.NormFloat64())
		case r.Intn(2) == 0:
			m.Data[i] = float32(math.Copysign(0, -1))
		default:
			m.Data[i] = 0
		}
	}
}

// poison overwrites about one entry in fifty of m with +Inf, -Inf or NaN.
func poison(m *Matrix, r *rng.RNG) {
	special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range m.Data {
		if r.Intn(50) == 0 {
			m.Data[i] = special[r.Intn(len(special))]
		}
	}
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1. Any NaN matches any NaN: which operand's payload an
// instruction propagates is the compiler's choice, not the kernels'.
func sameBits(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

func TestKernelsMatchReferenceBits(t *testing.T) {
	r := rng.New(77)
	dims := []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 31}
	pick := func() int { return dims[r.Intn(len(dims))] }
	type kernel struct {
		name      string
		got, want func(out, a, b *Matrix)
		shapes    func(m, k, n int) (ar, ac, br, bc int)
	}
	kernels := []kernel{
		{"MatMul", MatMul, refMatMul, func(m, k, n int) (int, int, int, int) { return m, k, k, n }},
		{"MatMulAT", MatMulAT, refMatMulAT, func(m, k, n int) (int, int, int, int) { return k, m, k, n }},
		{"MatMulBT", MatMulBT, refMatMulBT, func(m, k, n int) (int, int, int, int) { return m, k, n, k }},
	}
	for trial := 0; trial < 400; trial++ {
		m, k, n := pick(), pick(), pick()
		zeroFrac := float64(trial%10) / 10 // 0 to 90%
		for _, kn := range kernels {
			ar, ac, br, bc := kn.shapes(m, k, n)
			a, b := NewMatrix(ar, ac), NewMatrix(br, bc)
			fillSparse(a, r, zeroFrac)
			fillSparse(b, r, zeroFrac/2)
			if trial%3 == 0 {
				poison(b, r)
			}
			got, want := NewMatrix(m, n), NewMatrix(m, n)
			// Stale output contents must not leak into the result.
			for i := range got.Data {
				got.Data[i], want.Data[i] = 9, 9
			}
			kn.got(got, a, b)
			kn.want(want, a, b)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s %dx%d·%dx%d zeros %.0f%%: element %d = %v, reference %v",
					kn.name, ar, ac, br, bc, zeroFrac*100, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestKernelsZeroSkipContract pins which products skip zero coefficients:
// MatMul and MatMulAT never multiply a zero (or -0) coefficient of a, so an
// Inf or NaN in the matching row of b does not reach the output; MatMulBT is
// a plain dot product and propagates it.
func TestKernelsZeroSkipContract(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, bad := range []float32{inf, float32(math.Inf(-1)), nan} {
		// a has a zero at k=1 and a -0 at k=3; b's rows 1 and 3 are poisoned.
		a := &Matrix{R: 1, C: 5, Data: []float32{1, 0, 2, negZero, 3}}
		b := NewMatrix(5, 6)
		for j := 0; j < 6; j++ {
			for k := 0; k < 5; k++ {
				b.Data[k*6+j] = float32(k + 1)
			}
			b.Data[1*6+j], b.Data[3*6+j] = bad, bad
		}
		out := NewMatrix(1, 6)
		MatMul(out, a, b)
		for j, v := range out.Data {
			if v != 1*1+2*3+3*5 {
				t.Fatalf("MatMul with %v in a skipped row: out[%d] = %v, want 22", bad, j, v)
			}
		}
		at := &Matrix{R: 5, C: 1, Data: a.Data}
		MatMulAT(out, at, b)
		for j, v := range out.Data {
			if v != 22 {
				t.Fatalf("MatMulAT with %v in a skipped row: out[%d] = %v, want 22", bad, j, v)
			}
		}
		bt := NewMatrix(6, 5)
		for j := 0; j < 6; j++ {
			for k := 0; k < 5; k++ {
				bt.Data[j*5+k] = b.Data[k*6+j]
			}
		}
		MatMulBT(out, a, bt)
		for j, v := range out.Data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("MatMulBT with %v against a zero: out[%d] = %v, want NaN", bad, j, v)
			}
		}
	}
}

// Per-layer kernel benchmarks at the train-real layer-0 dense transform:
// a 512-row batch of 100-wide inputs about half zero (ReLU output) against
// a 100×64 weight, and the matching 512×64 output gradient.
func benchOperands() (x, w, dh *Matrix) {
	r := rng.New(1)
	x, w, dh = NewMatrix(512, 100), NewMatrix(100, 64), NewMatrix(512, 64)
	fillSparse(x, r, 0.5)
	fillSparse(w, r, 0)
	fillSparse(dh, r, 0.5)
	return x, w, dh
}

func BenchmarkMatMul(b *testing.B) {
	x, w, _ := benchOperands()
	out := NewMatrix(x.R, w.C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, x, w)
	}
}

func BenchmarkMatMulAT(b *testing.B) {
	x, _, dh := benchOperands()
	out := NewMatrix(x.C, dh.C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAT(out, x, dh)
	}
}

func BenchmarkMatMulBT(b *testing.B) {
	_, w, dh := benchOperands()
	out := NewMatrix(dh.R, w.R)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBT(out, dh, w)
	}
}
