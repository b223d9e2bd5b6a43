package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"nora/internal/rng"
)

func TestAddSubMul(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{10, 20}, {30, 40}})
	if got := Add(a, b); !got.AllClose(FromRows([][]float32{{11, 22}, {33, 44}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.AllClose(FromRows([][]float32{{9, 18}, {27, 36}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b); !got.AllClose(FromRows([][]float32{{10, 40}, {90, 160}}), 0) {
		t.Fatalf("Mul = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{3, 5}})
	a.AddInPlace(b)
	if a.At(0, 1) != 7 {
		t.Fatal("AddInPlace failed")
	}
	a.SubInPlace(b)
	if a.At(0, 0) != 1 || a.At(0, 1) != 2 {
		t.Fatal("SubInPlace failed")
	}
	a.ScaleInPlace(3)
	if a.At(0, 1) != 6 {
		t.Fatal("ScaleInPlace failed")
	}
}

func TestScaleColsRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	sc := ScaleCols(m, []float32{2, 0, 1})
	if !sc.AllClose(FromRows([][]float32{{2, 0, 3}, {8, 0, 6}}), 0) {
		t.Fatalf("ScaleCols = %v", sc)
	}
	sr := ScaleRows(m, []float32{10, 1})
	if !sr.AllClose(FromRows([][]float32{{10, 20, 30}, {4, 5, 6}}), 0) {
		t.Fatalf("ScaleRows = %v", sr)
	}
	m2 := m.Clone()
	m2.ScaleColsInPlace([]float32{2, 0, 1})
	if !m2.AllClose(sc, 0) {
		t.Fatal("ScaleColsInPlace mismatch")
	}
	m3 := m.Clone()
	m3.ScaleRowsInPlace([]float32{10, 1})
	if !m3.AllClose(sr, 0) {
		t.Fatal("ScaleRowsInPlace mismatch")
	}
}

// Rescaling invariance: for positive s, ScaleCols(x, 1/s) · ScaleRows(w, s)
// must equal x·w. This is the exact identity NORA relies on (Eq. 6-7 of the
// paper): the s_k component cancels between input columns and weight rows.
func TestRescaleInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, k, m := 2+r.Intn(6), 2+r.Intn(8), 2+r.Intn(6)
		x := randMatrix(r, n, k)
		w := randMatrix(r, k, m)
		s := make([]float32, k)
		inv := make([]float32, k)
		for i := range s {
			s[i] = 0.25 + 4*r.Float32() // keep well-conditioned
			inv[i] = 1 / s[i]
		}
		want := MatMul(x, w)
		got := MatMul(ScaleCols(x, inv), ScaleRows(w, s))
		return want.AllClose(got, 2e-4*(1+want.AbsMax()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVec(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	got := AddRowVec(m, []float32{10, 100})
	if !got.AllClose(FromRows([][]float32{{11, 102}, {13, 104}}), 0) {
		t.Fatalf("AddRowVec = %v", got)
	}
	m.AddRowVecInPlace([]float32{1, 1})
	if m.At(1, 1) != 5 {
		t.Fatal("AddRowVecInPlace failed")
	}
}

func TestAbsMaxFamily(t *testing.T) {
	m := FromRows([][]float32{{1, -5, 2}, {-3, 4, 0}})
	if m.AbsMax() != 5 {
		t.Fatalf("AbsMax = %v", m.AbsMax())
	}
	pr := m.AbsMaxPerRow()
	if pr[0] != 5 || pr[1] != 4 {
		t.Fatalf("AbsMaxPerRow = %v", pr)
	}
	pc := m.AbsMaxPerCol()
	if pc[0] != 3 || pc[1] != 5 || pc[2] != 2 {
		t.Fatalf("AbsMaxPerCol = %v", pc)
	}
	if AbsMaxVec([]float32{-7, 2}) != 7 {
		t.Fatal("AbsMaxVec failed")
	}
}

func TestSumMeanMSE(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	if m.Sum() != 10 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 2.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	o := FromRows([][]float32{{2, 2}, {3, 2}})
	if got := MSE(m, o); math.Abs(got-(1.0+0+0+4)/4) > 1e-12 {
		t.Fatalf("MSE = %v", got)
	}
	if MSE(m, m) != 0 {
		t.Fatal("MSE(m,m) != 0")
	}
}

func TestFrobenius(t *testing.T) {
	m := FromRows([][]float32{{3, 4}})
	if got := m.Frobenius(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromRows([][]float32{{1, 1, 1}, {1000, 1000, 1000}, {0, 100, 0}})
	m.SoftmaxRows()
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || math.IsNaN(float64(v)) {
				t.Fatalf("softmax row %d produced invalid value %v", i, v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
	// uniform row stays uniform; dominated row concentrates
	if math.Abs(float64(m.At(0, 0))-1.0/3) > 1e-6 {
		t.Fatal("uniform softmax wrong")
	}
	if m.At(2, 1) < 0.999 {
		t.Fatal("softmax did not concentrate on max")
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromRows([][]float32{{0, 5, 2}, {9, 1, 1}})
	got := m.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[2] != 7 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestApply(t *testing.T) {
	m := FromRows([][]float32{{-1, 2}})
	got := Apply(m, func(v float32) float32 { return v * v })
	if !got.AllClose(FromRows([][]float32{{1, 4}}), 0) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	for name, f := range map[string]func(){
		"Add":      func() { Add(a, b) },
		"MSE":      func() { MSE(a, b) },
		"ScaleCol": func() { ScaleCols(a, []float32{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
