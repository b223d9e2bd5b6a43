package tensor

import (
	"math"
	"testing"

	"nora/internal/rng"
)

// TestAccumQuadMatchesGeneric pins accumQuad (the SSE2 kernel on amd64)
// to its portable twin accumQuadGeneric bit for bit, on dense random and
// sparse inputs at lengths that exercise both the four-wide loop and the
// scalar tail. On other architectures accumQuad is the twin itself.
func TestAccumQuadMatchesGeneric(t *testing.T) {
	r := rng.New(0xACC4)
	fill := func(v []float32, density float32) {
		for i := range v {
			if r.Float32() < density {
				v[i] = (r.Float32()*2 - 1) * float32(math.Exp2(float64(r.Intn(24)-12)))
			} else {
				v[i] = 0
			}
		}
	}
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 67, 130}
	for _, density := range []float32{1, 0.3, 0.05} {
		for _, n := range lengths {
			for trial := 0; trial < 8; trial++ {
				rows := make([][]float32, 4)
				for i := range rows {
					rows[i] = make([]float32, n)
					fill(rows[i], density)
				}
				xs := make([]float32, 4)
				fill(xs, density)
				got := make([]float32, n)
				fill(got, density)
				want := append([]float32(nil), got...)
				accumQuad(got, rows[0], rows[1], rows[2], rows[3], xs[0], xs[1], xs[2], xs[3])
				accumQuadGeneric(want, rows[0], rows[1], rows[2], rows[3], xs[0], xs[1], xs[2], xs[3])
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("density %v n=%d trial %d: dst[%d] = %v, generic %v",
							density, n, trial, j, got[j], want[j])
					}
				}
			}
		}
	}
}
