package analog

import (
	"fmt"
	"math"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// mvmTile is the tile abstraction AnalogLinear drives: a plain crossbar
// (Tile) or a bit-sliced composite (SlicedTile). MVMBatchInto reads a block
// of rows; MVMRow is its allocating single-row wrapper. The unexported
// prepareInputs/runMAC/finishRow trio exposes the two read phases
// individually so AnalogLinear can interleave them across the tile grid in
// row-then-tile order (see batch.go).
type mvmTile interface {
	MVMRow(xs []float32, r *rng.Rand) []float32
	MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand)
	ColScales() []float32
	SetTime(tSec float64)
	CounterSnapshot() OpCounters
	ResetCounters()
	FaultStats() FaultStats
	Rows() int
	Cols() int

	prepareInputs(ip *inputPrep, xs *tensor.Matrix, bs *batchScratch)
	runMAC(p *tilePrep, ip *inputPrep, bs *batchScratch)
	finishRow(coef float32, dst []float32, ip *inputPrep, p *tilePrep, i int, r *rng.Rand, s *readScratch)
}

var (
	_ mvmTile = (*Tile)(nil)
	_ mvmTile = (*SlicedTile)(nil)
)

// SlicedTile implements the paper's §VII extension for NVM devices that
// cannot hold continuous analog weights: each weight is decomposed into
// WeightSlices base-2^SliceBits digits, every digit lives on its own
// crossbar slice, and slice outputs are combined digitally with shift-add.
// The composite reaches WeightSlices·SliceBits bits of weight precision
// ("over 8-bit weight precision by using multiple memory cells") while
// every slice runs the full analog noise pipeline independently.
type SlicedTile struct {
	slices []*Tile
	radix  float64 // 2^SliceBits
	rows   int
	cols   int

	colScale []float32 // effective combined per-column scales
}

// NewSlicedTile programs ws across slices·sliceBits of weight precision.
// slices must be ≥ 2 and sliceBits ≥ 1.
func NewSlicedTile(cfg Config, ws *tensor.Matrix, slices, sliceBits int, progRng *rng.Rand) *SlicedTile {
	if slices < 2 || sliceBits < 1 {
		panic(fmt.Sprintf("analog: NewSlicedTile needs slices ≥ 2 and sliceBits ≥ 1, got %d/%d", slices, sliceBits))
	}
	radix := math.Pow(2, float64(sliceBits))
	levels := math.Pow(radix, float64(slices)) - 1 // b^S − 1 magnitude levels

	st := &SlicedTile{
		radix: radix,
		rows:  ws.Rows,
		cols:  ws.Cols,
	}
	// Per-column full scale of the composite weight.
	colMax := ws.AbsMaxPerCol()

	// Decompose: |w|/colMax ∈ [0,1] → integer magnitude in [0, b^S−1] →
	// base-b digits. Slice s (least significant first) holds the real
	// value sign·d_s·colMax/levels so that W = Σ_s b^s · A_s exactly on
	// the quantized grid.
	digitMats := make([]*tensor.Matrix, slices)
	for s := range digitMats {
		digitMats[s] = tensor.New(ws.Rows, ws.Cols)
	}
	for i := 0; i < ws.Rows; i++ {
		for j := 0; j < ws.Cols; j++ {
			v := ws.At(i, j)
			if colMax[j] == 0 {
				continue
			}
			sign := float32(1)
			if v < 0 {
				sign = -1
				v = -v
			}
			mag := int64(math.Round(float64(v/colMax[j]) * levels))
			unit := sign * colMax[j] / float32(levels)
			b := int64(radix)
			for s := 0; s < slices; s++ {
				digit := mag % b
				mag /= b
				digitMats[s].Set(i, j, float32(digit)*unit)
			}
		}
	}
	for s := 0; s < slices; s++ {
		st.slices = append(st.slices, NewTile(cfg, digitMats[s], progRng.Split(fmt.Sprintf("slice%d", s))))
	}
	// Effective combined scale per column: Σ_s b^s · c_s,j.
	st.colScale = make([]float32, ws.Cols)
	pow := 1.0
	for s := 0; s < slices; s++ {
		cs := st.slices[s].ColScales()
		for j := range st.colScale {
			st.colScale[j] += float32(pow) * cs[j]
		}
		pow *= radix
	}
	return st
}

// Rows returns the mapped input dimension.
func (st *SlicedTile) Rows() int { return st.rows }

// Cols returns the mapped output dimension.
func (st *SlicedTile) Cols() int { return st.cols }

// Slices returns the number of weight slices.
func (st *SlicedTile) Slices() int { return len(st.slices) }

// ColScales returns the effective combined per-column scale factors.
func (st *SlicedTile) ColScales() []float32 { return st.colScale }

// SetTime advances every slice to tSec seconds after programming.
func (st *SlicedTile) SetTime(tSec float64) {
	for _, s := range st.slices {
		s.SetTime(tSec)
	}
}

// CounterSnapshot aggregates a consistent copy of the hardware events
// across all slices into a fresh value — no shared scratch, so concurrent
// snapshots (e.g. /statz against a live fleet) never tear each other.
func (st *SlicedTile) CounterSnapshot() OpCounters {
	var total OpCounters
	for _, s := range st.slices {
		total.Add(s.counters.Snapshot())
	}
	return total
}

// ResetCounters zeroes every slice's counters.
func (st *SlicedTile) ResetCounters() {
	for _, s := range st.slices {
		s.counters.Reset()
	}
}

// MVMRow runs the input through every slice and shift-adds the digitized
// partial results: y = Σ_s b^s · y_s. Like (*Tile).MVMRow it is the
// MVMBatchInto read at T = 1.
func (st *SlicedTile) MVMRow(xs []float32, r *rng.Rand) []float32 {
	out := tensor.New(1, st.cols)
	xm := &tensor.Matrix{Rows: 1, Cols: len(xs), Data: xs}
	st.MVMBatchInto(1, out, xm, r)
	return out.Data
}

// prepareInputs delegates to the first slice: every slice shares the tile
// Config and input width, so α, X̂ and ‖x̂‖² are identical across slices and
// computed once for the composite.
func (st *SlicedTile) prepareInputs(ip *inputPrep, xs *tensor.Matrix, bs *batchScratch) {
	st.slices[0].prepareInputs(ip, xs, bs)
}

// runMAC runs every slice's phase-1 MAC into one sub-prep per slice.
func (st *SlicedTile) runMAC(p *tilePrep, ip *inputPrep, bs *batchScratch) {
	if cap(p.subs) < len(st.slices) {
		subs := make([]tilePrep, len(st.slices))
		copy(subs, p.subs)
		p.subs = subs
	}
	p.subs = p.subs[:len(st.slices)]
	for k, sl := range st.slices {
		sl.runMAC(&p.subs[k], ip, bs)
	}
	p.z, p.load = nil, nil
}

// finishRow digitizes row i of every slice in slice order and shift-adds
// the composite into dst. The composite y = Σ_s b^s·y_s is built in a
// scratch buffer first and added to dst in one pass — NOT folded slice by
// slice directly into dst, which would re-associate the float32 sums
// against partial results already accumulated there.
func (st *SlicedTile) finishRow(coef float32, dst []float32, ip *inputPrep, p *tilePrep, i int, r *rng.Rand, s *readScratch) {
	comp := grow(&s.comp, len(dst))
	for j := range comp {
		comp[j] = 0
	}
	pow := float32(1)
	for k, sl := range st.slices {
		sl.finishRow(pow, comp, ip, &p.subs[k], i, r, s)
		pow *= float32(st.radix)
	}
	for j, v := range comp {
		dst[j] += coef * v
	}
}
