// Package nn implements the dense math for GNN training: a small matrix
// library, GraphSAGE and GCN models with manual backpropagation, losses and
// optimizers. The math is real — Figure 9's learning curves come from
// genuine gradient descent — and every floating-point operation executed is
// counted so the simulated GPUs can be charged the equivalent kernel time.
//
// Kernel contract. MatMul, MatMulAT and MatMulBT share one row kernel
// (gemm). Each output element starts at +0 and accumulates its products in
// ascending k, one individually rounded float32 multiply-add per statement.
// MatMul and MatMulAT skip products whose coefficient from a is zero or -0,
// so an Inf or NaN in the matching row of b never reaches the output;
// MatMulBT multiplies every coefficient, a plain dot product. The kernel
// transposes the operand that would otherwise be walked by column and holds
// each output element in a register across four rows of b, but the
// per-element sequence of operations is the textbook loop's. That is why
// the results are bit-identical to it, and why a blocking change must keep
// both the order and the skip rule.
package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	R, C int
	Data []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(r, c int) *Matrix {
	return &Matrix{R: r, C: c, Data: make([]float32, r*c)}
}

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.C : (i+1)*m.C] }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// GlorotInit fills the matrix with Glorot-uniform values.
func (m *Matrix) GlorotInit(r *rng.RNG) {
	limit := float32(math.Sqrt(6.0 / float64(m.R+m.C)))
	for i := range m.Data {
		m.Data[i] = (2*float32(r.Float64()) - 1) * limit
	}
}

// flops accumulates the floating-point operations executed by this package;
// callers snapshot it around a training step to charge simulated kernels.
// It is package-level because model forward/backward spans many helpers; the
// simulator is single-threaded per step so no synchronisation is needed.
var flops int64

// FlopCount returns the cumulative FLOPs executed so far.
func FlopCount() int64 { return flops }

// MatMul computes out = a @ b (a: m×k, b: k×n). out must be m×n and is
// overwritten.
func MatMul(out, a, b *Matrix) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("nn: matmul shape (%dx%d)@(%dx%d)->(%dx%d)", a.R, a.C, b.R, b.C, out.R, out.C))
	}
	gemm(out, a, b, true)
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// MatMulAT computes out = aᵀ @ b (a: k×m, b: k×n, out: m×n) — the weight-
// gradient product of backprop.
func MatMulAT(out, a, b *Matrix) {
	if a.R != b.R || out.R != a.C || out.C != b.C {
		panic("nn: matmulAT shape")
	}
	at, buf := transpose(a)
	gemm(out, &at, b, true)
	scratch.Put(buf)
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.C)
}

// MatMulBT computes out = a @ bᵀ (a: m×k, b: n×k, out: m×n) — the input-
// gradient product of backprop. Unlike MatMul and MatMulAT it multiplies
// every coefficient, zeros included: it is a plain dot product from +0.
func MatMulBT(out, a, b *Matrix) {
	if a.C != b.C || out.R != a.R || out.C != b.R {
		panic("nn: matmulBT shape")
	}
	bt, buf := transpose(b)
	gemm(out, a, &bt, false)
	scratch.Put(buf)
	flops += 2 * int64(a.R) * int64(a.C) * int64(b.R)
}

// scratch recycles the transposed operands of MatMulAT and MatMulBT, so a
// training step allocates nothing for them in the steady state.
var scratch = sync.Pool{New: func() any { return new([]float32) }}

// transpose returns mᵀ backed by a scratch buffer, which the caller hands
// back with scratch.Put once done with the result.
func transpose(m *Matrix) (Matrix, *[]float32) {
	buf := scratch.Get().(*[]float32)
	if cap(*buf) < len(m.Data) {
		*buf = make([]float32, len(m.Data))
	}
	t := Matrix{R: m.C, C: m.R, Data: (*buf)[:len(m.Data)]}
	for i := 0; i < m.R; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.C+i] = v
		}
	}
	return t, buf
}

// gemm is the one kernel behind all three products: out = a @ b, row by
// row. For each output row it walks a's coefficients in ascending k (with
// skipZero, only the non-zero ones) and applies the matching rows of b four
// at a time, keeping each output element in a register across the four
// multiply-adds. Every element still receives the same sequence of
// individually rounded products and sums as the textbook i-k-j loop.
func gemm(out, a, b *Matrix, skipZero bool) {
	out.Zero()
	for i := 0; i < a.R; i++ {
		ar, or := a.Row(i), out.Row(i)
		var ks [4]int
		nk := 0
		for k, av := range ar {
			if skipZero && av == 0 {
				continue
			}
			ks[nk] = k
			if nk++; nk == 4 {
				axpy4(or, ar[ks[0]], ar[ks[1]], ar[ks[2]], ar[ks[3]],
					b.Row(ks[0]), b.Row(ks[1]), b.Row(ks[2]), b.Row(ks[3]))
				nk = 0
			}
		}
		for _, k := range ks[:nk] {
			axpy1(or, ar[k], b.Row(k))
		}
	}
}

// axpy4 computes or[j] += a0*b0[j]; … ; or[j] += a3*b3[j] for every j, in
// that order, one rounded multiply-add per statement.
func axpy4(or []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(or)], b1[:len(or)], b2[:len(or)], b3[:len(or)]
	for j, s := range or {
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		or[j] = s
	}
}

// axpy1 computes or[j] += a0*b0[j] for every j.
func axpy1(or []float32, a0 float32, b0 []float32) {
	b0 = b0[:len(or)]
	for j := range or {
		or[j] += a0 * b0[j]
	}
}

// AddBiasInPlace adds bias (1×C) to every row of m.
func AddBiasInPlace(m *Matrix, bias []float32) {
	for i := 0; i < m.R; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] += bias[j]
		}
	}
	flops += int64(m.R) * int64(m.C)
}

// ReLUInPlace applies max(0, x); mask records the active entries for the
// backward pass.
func ReLUInPlace(m *Matrix, mask []bool) {
	for i, v := range m.Data {
		if v > 0 {
			mask[i] = true
		} else {
			mask[i] = false
			m.Data[i] = 0
		}
	}
	flops += int64(len(m.Data))
}

// ReLUBackwardInPlace zeroes gradient entries where the activation was
// clamped.
func ReLUBackwardInPlace(g *Matrix, mask []bool) {
	for i := range g.Data {
		if !mask[i] {
			g.Data[i] = 0
		}
	}
}

// SoftmaxCrossEntropy computes mean cross-entropy loss and accuracy over
// logits (rows) vs labels, and writes dlogits = (softmax - onehot)/rows.
func SoftmaxCrossEntropy(logits *Matrix, labels []int32, dlogits *Matrix) (loss float64, correct int) {
	rows := logits.R
	if rows == 0 {
		return 0, 0
	}
	for i := 0; i < rows; i++ {
		lr := logits.Row(i)
		dr := dlogits.Row(i)
		maxV, argmax := lr[0], 0
		for j, v := range lr {
			if v > maxV {
				maxV, argmax = v, j
			}
		}
		if int32(argmax) == labels[i] {
			correct++
		}
		var sum float64
		for j, v := range lr {
			e := math.Exp(float64(v - maxV))
			dr[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dr {
			dr[j] *= inv
		}
		loss += -math.Log(float64(dr[labels[i]]) + 1e-12)
		dr[labels[i]] -= 1
		for j := range dr {
			dr[j] /= float32(rows)
		}
	}
	flops += 5 * int64(rows) * int64(logits.C)
	return loss / float64(rows), correct
}
