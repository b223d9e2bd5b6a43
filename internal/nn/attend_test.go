package nn

import (
	"fmt"
	"math"
	"testing"

	"nora/internal/rng"
)

// refAttendRow is attendCachedRow as the scalar loops it ran before the
// packed kernels, over the same position-minor K pages: per head, scores in
// column order, the max by `if s > mx`, float32 numerators through
// math.Exp with their float64 sum in position order, then the weighted V
// rows in position order.
func refAttendRow(out []float32, m *Model, st *decodeState, layer int, q []float32, pos int) {
	dh := m.Cfg.HeadDim()
	group := m.Cfg.NHeads / m.Cfg.KVHeads()
	scale := float32(1 / math.Sqrt(float64(dh)))
	lo := 0
	if w := m.Cfg.Window; w > 0 && pos-w+1 > 0 {
		lo = pos - w + 1
	}
	clear(out)
	pt, kvd := st.pool.pageTokens, st.pool.kvDim
	sc := make([]float32, pos-lo+1)
	for h := 0; h < m.Cfg.NHeads; h++ {
		kvLo := (h / group) * dh
		qh := q[h*dh:][:dh]
		mx := float32(math.Inf(-1))
		for t := lo; t <= pos; t++ {
			kb := st.pages[t/pt][layer*2*pt*kvd:]
			var sum float32
			for c, qv := range qh {
				sum += float32(qv * kb[(kvLo+c)*pt+t%pt])
			}
			sum *= scale
			sc[t-lo] = sum
			if sum > mx {
				mx = sum
			}
		}
		var sum float64
		for i := range sc {
			e := float32(math.Exp(float64(sc[i] - mx)))
			sc[i] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		orow := out[h*dh:][:dh]
		for t := lo; t <= pos; t++ {
			w := sc[t-lo] * inv
			vrow := st.pages[t/pt][(layer*2+1)*pt*kvd+(t%pt)*kvd+kvLo:][:dh]
			for c := range orow {
				orow[c] += float32(w * vrow[c])
			}
		}
	}
}

// TestAttendCachedRowMatchesScalar pins attendCachedRow to refAttendRow bit
// for bit at every span 1–70 (query rows at positions 0–69), at page sizes
// 1, 3, 8 and 16 and one page spanning the context, head sizes 8, 12 and 16,
// grouped-query groups 1 and 2, with and without a 30-position window (the
// mistral-c rows). Each cache runs three ways: random keys and values; with
// ties (positions whose keys repeat an earlier one's) and a query head of
// zeros, so every score of that head is +0; and with a NaN key in one
// layer, so that layer's heads on its key head see a NaN score.
func TestAttendCachedRowMatchesScalar(t *testing.T) {
	const ctx = 70
	for _, dh := range []int{8, 12, 16} {
		for _, kvHeads := range []int{4, 2} {
			for _, window := range []int{0, 30} {
				cfg := Config{Name: "attend", Arch: ArchLLaMA, Vocab: 8, DModel: 4 * dh, NHeads: 4,
					NKVHeads: kvHeads, NLayers: 2, DFF: 8, MaxSeq: ctx, Window: window}
				m := &Model{Cfg: cfg}
				for _, pt := range []int{1, 3, 8, 16, ctx} {
					for _, variant := range []string{"random", "ties and zero scores", "NaN key"} {
						name := fmt.Sprintf("dh=%d group=%d window=%d page=%d %s", dh, 4/kvHeads, window, pt, variant)
						checkAttendRows(t, name, m, pt, variant)
					}
				}
			}
		}
	}
}

func checkAttendRows(t *testing.T, name string, m *Model, pt int, variant string) {
	t.Helper()
	const ctx = 70
	kvd, d := m.Cfg.KVDim(), m.Cfg.DModel
	pool := newKVPagePool(m.Cfg.NLayers, kvd, pt, (ctx+pt-1)/pt)
	st := newDecodeState(nil, pool)
	if err := st.reserve(ctx); err != nil {
		t.Fatal(err)
	}
	r := rng.New(uint64(pt*1000 + kvd))
	rows := make([][]float32, ctx)
	for p := 0; p < ctx; p++ {
		for l := 0; l < m.Cfg.NLayers; l++ {
			k, v := make([]float32, kvd), make([]float32, kvd)
			for c := range k {
				k[c], v[c] = float32(2*r.Float64()-1), float32(2*r.Float64()-1)
			}
			if variant == "ties and zero scores" && p%7 == 3 {
				copy(k, rows[p/2])
			}
			if variant == "NaN key" && l == 1 && p == 11 {
				k[1] = float32(math.NaN())
			}
			if l == 0 {
				rows[p] = k
			}
			st.storeKV(l, p, k, v)
		}
	}
	sc := new(decodeScratch)
	got, want := make([]float32, d), make([]float32, d)
	for pos := 0; pos < ctx; pos++ {
		q := make([]float32, d)
		for c := range q {
			q[c] = float32(2*r.Float64() - 1)
		}
		if variant == "ties and zero scores" {
			clear(q[:m.Cfg.HeadDim()])
		}
		for l := 0; l < m.Cfg.NLayers; l++ {
			attendCachedRow(got, m, st, l, q, pos, sc)
			refAttendRow(want, m, st, l, q, pos)
			for c := range want {
				if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
					t.Fatalf("%s: layer %d pos %d col %d: %v (bits %08x), scalar %v (bits %08x)",
						name, l, pos, c, got[c], math.Float32bits(got[c]), want[c], math.Float32bits(want[c]))
				}
			}
		}
	}
}
