package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which MatMul stays
// single-threaded; spawning goroutines for tiny products costs more than it
// saves.
const parallelThreshold = 64 * 1024

// kPanelBytes bounds the working set of one k-panel (the rows of b a blocked
// kernel streams repeatedly) so it stays resident in L1/L2 across the output
// rows that reuse it.
const kPanelBytes = 32 * 1024

// kPanelFor returns the number of k-rows per panel for row width n, so a
// panel occupies about kPanelBytes. Panels never shrink below 16 rows: the
// blocking overhead would exceed the locality win.
func kPanelFor(n int) int {
	if n <= 0 {
		return 16
	}
	kc := kPanelBytes / (4 * n)
	if kc < 16 {
		kc = 16
	}
	return kc
}

// MatMul returns a·b. Panics if the inner dimensions disagree.
//
// The kernel k-panel blocks b for cache reuse across output rows and
// parallelizes across row blocks of a. Within a panel, macPanel keeps a
// block of one output row's partial sums in registers while it streams the
// panel's rows of b (AVX2 on amd64 CPUs that have it, portable Go
// elsewhere). Accumulation into every output element happens in strictly
// increasing k order and zero inputs are skipped, which is exact for finite
// b, so results are bit-identical to the naive triple loop.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a·b into caller-owned storage, overwriting out
// without allocating. Results are bit-identical to MatMul.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim %d != %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto out %dx%d, expected %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	matMulInto(out, a, b)
}

func matMulInto(out, a, b *Matrix) {
	work := a.Rows * a.Cols * b.Cols
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	// A single worker would spawn one goroutine just to wait on it —
	// pure overhead (and a heap allocation) on single-CPU machines.
	if work < parallelThreshold || workers <= 1 {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange accumulates rows [rowLo, rowHi) of a·b into out, one k-panel
// of b at a time.
func matMulRange(out, a, b *Matrix, rowLo, rowHi int) {
	n := b.Cols
	if n == 0 {
		return
	}
	kc := kPanelFor(n)
	for k0 := 0; k0 < a.Cols; k0 += kc {
		k1 := k0 + kc
		if k1 > a.Cols {
			k1 = a.Cols
		}
		panel := b.Data[k0*n : k1*n]
		for i := rowLo; i < rowHi; i++ {
			macPanel(out.Row(i), a.Row(i)[k0:k1], panel, n)
		}
	}
}

// MatMulSerialInto computes out = a·b like MatMulInto but never spawns
// goroutines, whatever the product size — the kernel for callers that need
// a strict zero-allocation guarantee (the analog batched read path, whose
// steady state is gated at 0 allocs/op). Results are bit-identical to
// MatMul: every output element receives the same addends in the same k
// order.
func MatMulSerialInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim %d != %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulSerialInto out %dx%d, expected %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	matMulRange(out, a, b, 0, a.Rows)
}

// MatMulAbsSerialInto computes out = a·b and absOut = |a|·absB in one
// serial pass, overwriting both: the analog tile read's crossbar MAC x̂·W
// and its IR-drop column load |x̂|·|W| (absB = |b|). absB must have b's
// shape. Both results are bit-identical to MatMulSerialInto(out, a, b) and
// MatMulSerialInto(absOut, |a|, absB).
func MatMulAbsSerialInto(out, absOut, a, b, absB *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim %d != %d", a.Cols, b.Rows))
	}
	if !b.SameShape(absB) {
		panic(fmt.Sprintf("tensor: MatMulAbsSerialInto absB %dx%d, b %dx%d", absB.Rows, absB.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols || !out.SameShape(absOut) {
		panic(fmt.Sprintf("tensor: MatMulAbsSerialInto out %dx%d and %dx%d, expected %dx%d",
			out.Rows, out.Cols, absOut.Rows, absOut.Cols, a.Rows, b.Cols))
	}
	clear(out.Data)
	clear(absOut.Data)
	n := b.Cols
	if n == 0 {
		return
	}
	// Two matrices stream through each panel, so it holds half the rows.
	kc := kPanelFor(2 * n)
	for k0 := 0; k0 < a.Cols; k0 += kc {
		k1 := k0 + kc
		if k1 > a.Cols {
			k1 = a.Cols
		}
		w, aw := b.Data[k0*n:k1*n], absB.Data[k0*n:k1*n]
		for i := 0; i < a.Rows; i++ {
			macAbsPanel(out.Row(i), absOut.Row(i), a.Row(i)[k0:k1], w, aw, n)
		}
	}
}

// MatMulT returns a·bᵀ without materializing the transpose. b is treated as
// a (cols(a) × rows(b)) matrix read row-wise, i.e. out[i,j] = Σ_k a[i,k]·b[j,k].
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a·bᵀ into caller-owned storage, overwriting out
// without allocating. Results are bit-identical to MatMulT.
func MatMulTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim %d != %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTInto out %dx%d, expected %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	// matMulTRange accumulates onto the running sums already in out, so a
	// reused destination must start from zero to match MatMulT exactly.
	for i := range out.Data {
		out.Data[i] = 0
	}
	work := a.Rows * a.Cols * b.Rows
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if work < parallelThreshold || workers <= 1 {
		matMulTRange(out, a, b, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulTRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulTRange is the dot-product-oriented kernel: k-panel blocked so the
// panel of b rows stays cache-resident across output rows, with the column
// loop unrolled 4-way — four independent accumulator chains share each load
// of the a row. Every output element accumulates its partial dot products in
// strictly increasing k order (the running sum round-trips through out
// between panels, which does not reassociate any addition), so results are
// bit-identical to the naive version.
func matMulTRange(out, a, b *Matrix, rowLo, rowHi int) {
	if b.Rows == 0 || a.Cols == 0 {
		for i := rowLo; i < rowHi; i++ {
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
		}
		return
	}
	kc := kPanelFor(b.Rows)
	for k0 := 0; k0 < a.Cols; k0 += kc {
		k1 := k0 + kc
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for i := rowLo; i < rowHi; i++ {
			arow := a.Row(i)[k0:k1]
			orow := out.Row(i)
			j := 0
			for ; j+3 < b.Rows; j += 4 {
				b0 := b.Row(j)[k0:k1]
				b1 := b.Row(j + 1)[k0:k1]
				b2 := b.Row(j + 2)[k0:k1]
				b3 := b.Row(j + 3)[k0:k1]
				s0, s1, s2, s3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
				for k, av := range arow {
					s0 += float32(av * b0[k])
					s1 += float32(av * b1[k])
					s2 += float32(av * b2[k])
					s3 += float32(av * b3[k])
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < b.Rows; j++ {
				brow := b.Row(j)[k0:k1]
				s := orow[j]
				for k, av := range arow {
					s += float32(av * brow[k])
				}
				orow[j] = s
			}
		}
	}
}

// MulVec returns m·x for a column vector x (len = m.Cols).
func MulVec(m *Matrix, x []float32) []float32 {
	out := make([]float32, m.Rows)
	MulVecInto(out, m, x)
	return out
}

// MulVecInto computes dst = m·x (len(dst) = m.Rows, len(x) = m.Cols),
// overwriting dst without allocating. The row loop is unrolled 4-way: four
// independent dot-product chains share each load of x, and every output
// element keeps the strict k-order single accumulator chain of the scalar
// loop, so results are bit-identical.
func MulVecInto(dst []float32, m *Matrix, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec len(x)=%d, cols=%d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecInto len(dst)=%d, rows=%d", len(dst), m.Rows))
	}
	n := m.Cols
	i := 0
	for ; i+3 < m.Rows; i += 4 {
		base := i * n
		r0 := m.Data[base : base+n][:len(x)]
		r1 := m.Data[base+n : base+2*n][:len(x)]
		r2 := m.Data[base+2*n : base+3*n][:len(x)]
		r3 := m.Data[base+3*n : base+4*n][:len(x)]
		var s0, s1, s2, s3 float32
		for k, xv := range x {
			s0 += float32(r0[k] * xv)
			s1 += float32(r1[k] * xv)
			s2 += float32(r2[k] * xv)
			s3 += float32(r3[k] * xv)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Row(i)
		var s float32
		for k, v := range row {
			s += float32(v * x[k])
		}
		dst[i] = s
	}
}

// VecMul returns xᵀ·m for a row vector x (len = m.Rows); this is the GEMV
// orientation an analog crossbar computes (inputs on wordlines = rows,
// outputs on bitlines = columns).
func VecMul(x []float32, m *Matrix) []float32 {
	out := make([]float32, m.Cols)
	VecMulInto(out, x, m)
	return out
}

// VecMulInto computes dst = xᵀ·m (len(dst) = m.Cols), overwriting dst
// without allocating. It runs MatMul's panel kernel over the whole of x, so
// results are bit-identical to the scalar k-j loop.
func VecMulInto(dst []float32, x []float32, m *Matrix) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: VecMul len(x)=%d, rows=%d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: VecMulInto len(dst)=%d, cols=%d", len(dst), m.Cols))
	}
	clear(dst)
	macPanel(dst, x, m.Data, m.Cols)
}

// VecMulAbsInto computes dst = xᵀ·m and absDst = |x|ᵀ·absM in one pass,
// overwriting both: the single-row form of MatMulAbsSerialInto, with the
// same bits.
func VecMulAbsInto(dst, absDst, x []float32, m, absM *Matrix) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: VecMul len(x)=%d, rows=%d", len(x), m.Rows))
	}
	if !m.SameShape(absM) {
		panic(fmt.Sprintf("tensor: VecMulAbsInto absM %dx%d, m %dx%d", absM.Rows, absM.Cols, m.Rows, m.Cols))
	}
	if len(dst) != m.Cols || len(absDst) != m.Cols {
		panic(fmt.Sprintf("tensor: VecMulAbsInto len(dst)=%d, len(absDst)=%d, cols=%d", len(dst), len(absDst), m.Cols))
	}
	clear(dst)
	clear(absDst)
	macAbsPanel(dst, absDst, x, m.Data, absM.Data, m.Cols)
}

// Outer returns the outer product a·bᵀ of two vectors as a len(a)×len(b)
// matrix.
func Outer(a, b []float32) *Matrix {
	out := New(len(a), len(b))
	for i, av := range a {
		row := out.Row(i)
		for j, bv := range b {
			row[j] = av * bv
		}
	}
	return out
}
