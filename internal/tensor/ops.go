package tensor

import (
	"fmt"
	"math"
)

// Add returns m + o as a new matrix.
func Add(m, o *Matrix) *Matrix {
	checkSame("Add", m, o)
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + o.Data[i]
	}
	return out
}

// Sub returns m - o as a new matrix.
func Sub(m, o *Matrix) *Matrix {
	checkSame("Sub", m, o)
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - o.Data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product m ⊙ o.
func Mul(m, o *Matrix) *Matrix {
	checkSame("Mul", m, o)
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * o.Data[i]
	}
	return out
}

// MulInPlace multiplies m by o elementwise in place.
func (m *Matrix) MulInPlace(o *Matrix) {
	checkSame("MulInPlace", m, o)
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// AddInPlace accumulates o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	checkSame("AddInPlace", m, o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts o from m in place.
func (m *Matrix) SubInPlace(o *Matrix) {
	checkSame("SubInPlace", m, o)
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// Scale returns s·m as a new matrix.
func Scale(m *Matrix, s float32) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply returns f applied elementwise to m.
func Apply(m *Matrix, f func(float32) float32) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ScaleCols multiplies column k of m by s[k] (returns a new matrix).
// This is m · diag(s).
func ScaleCols(m *Matrix, s []float32) *Matrix {
	if len(s) != m.Cols {
		panic(fmt.Sprintf("tensor: ScaleCols len(s)=%d, cols=%d", len(s), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, v := range src {
			dst[j] = v * s[j]
		}
	}
	return out
}

// ScaleColsInPlace multiplies column k of m by s[k].
func (m *Matrix) ScaleColsInPlace(s []float32) {
	if len(s) != m.Cols {
		panic(fmt.Sprintf("tensor: ScaleColsInPlace len(s)=%d, cols=%d", len(s), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
}

// ScaleRows multiplies row k of m by s[k] (returns a new matrix).
// This is diag(s) · m.
func ScaleRows(m *Matrix, s []float32) *Matrix {
	if len(s) != m.Rows {
		panic(fmt.Sprintf("tensor: ScaleRows len(s)=%d, rows=%d", len(s), m.Rows))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		f := s[i]
		for j, v := range src {
			dst[j] = v * f
		}
	}
	return out
}

// ScaleRowsInPlace multiplies row k of m by s[k].
func (m *Matrix) ScaleRowsInPlace(s []float32) {
	if len(s) != m.Rows {
		panic(fmt.Sprintf("tensor: ScaleRowsInPlace len(s)=%d, rows=%d", len(s), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		f := s[i]
		for j := range row {
			row[j] *= f
		}
	}
}

// AddRowVec adds vector v to every row of m (broadcast add), returning a new
// matrix. Used for biases.
func AddRowVec(m *Matrix, v []float32) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec len(v)=%d, cols=%d", len(v), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, x := range src {
			dst[j] = x + v[j]
		}
	}
	return out
}

// AddRowVecInPlace adds vector v to every row of m.
func (m *Matrix) AddRowVecInPlace(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVecInPlace len(v)=%d, cols=%d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// AbsMax returns the maximum absolute value over all elements (0 for empty).
func (m *Matrix) AbsMax() float32 { return AbsMaxVec(m.Data) }

// AbsMaxPerRow returns max_j |m[i,j]| for each row i.
func (m *Matrix) AbsMaxPerRow() []float32 {
	out := make([]float32, m.Rows)
	for i := range out {
		out[i] = AbsMaxVec(m.Row(i))
	}
	return out
}

// AbsMaxPerCol returns max_i |m[i,j]| for each column j.
func (m *Matrix) AbsMaxPerCol() []float32 {
	out := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v < 0 {
				v = -v
			}
			if v > out[j] {
				out[j] = v
			}
		}
	}
	return out
}

// Sum returns the float64 sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the float64 mean of all elements (0 for empty).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MSE returns the mean squared error between m and o in float64.
func MSE(m, o *Matrix) float64 {
	checkSame("MSE", m, o)
	if len(m.Data) == 0 {
		return 0
	}
	var s float64
	for i, v := range m.Data {
		d := float64(v) - float64(o.Data[i])
		s += float64(d * d)
	}
	return s / float64(len(m.Data))
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		mx := float32(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - mx)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgmaxRows returns the index of the max element of each row.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// Dot returns the float64 dot product of a and b.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += float64(float64(v) * float64(b[i]))
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += float32(alpha * v)
	}
}

// AbsMaxVec returns max_i |v[i]| (0 for empty). NaN elements are skipped.
func AbsMaxVec(v []float32) float32 {
	mx, n := absMaxBlock(v)
	return absMaxFrom(mx, v[n:])
}

// QuantizeUnitInto converts src to a symmetric uniform grid:
// dst[k] = round(clamp(src[k]/scale, −1, 1)·half)·inv, rounding half away
// from zero in float64 as math.Round does. It is the analog DAC conversion
// for a power-of-two step count half, where inv = 1/half exactly; len(dst)
// must be at least len(src).
func QuantizeUnitInto(dst, src []float32, scale, half, inv float32) {
	n := quantizeBlock(dst, src, scale, half, inv)
	quantizeUnitGeneric(dst[n:], src[n:], scale, half, inv)
}

// ADCInPlace is the ADC conversion of Eq. 3 at a power-of-two step count,
// in place: each z[j] is clamped to ±bound and rounded half away from zero
// to the grid of 2·half+1 levels, z[j] = round(z[j]/bound·half)·inv·bound
// with inv = 1/half. It reports whether any input reached the saturation
// limit (z[j] ≥ limit or z[j] ≤ −limit).
func ADCInPlace(z []float32, limit, bound, half, inv float32) (saturated bool) {
	n, saturated := adcBlock(z, limit, bound, half, inv)
	if adcGeneric(z[n:], limit, bound, half, inv) {
		saturated = true
	}
	return saturated
}

// IRDropInPlace attenuates each column output z[j] by its bitline IR drop:
// z[j] *= 1 − min(0.9, (drop·load[j])·invRows), for a column sinking
// load[j] of a tile with 1/invRows rows at drop coefficient drop.
func IRDropInPlace(z, load []float32, drop, invRows float32) {
	n := irDropBlock(z, load, drop, invRows)
	irDropGeneric(z[n:], load[n:], drop, invRows)
}

// RescaleAddInto adds coef·(((alpha·c[j])·z[j])·drift) to dst[j], each
// product in that order: the digital rescale of one analog read by its
// input scale α, column scales c and drift compensation, times a caller's
// shift-add weight coef.
func RescaleAddInto(dst, c, z []float32, coef, alpha, drift float32) {
	n := rescaleAddBlock(dst, c, z, coef, alpha, drift)
	rescaleAddGeneric(dst[n:], c[n:], z[n:], coef, alpha, drift)
}

func checkSame(op string, m, o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
