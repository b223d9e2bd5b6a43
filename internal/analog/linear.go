package analog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// AnalogLinear maps one linear layer y = x·W + b onto a grid of analog CIM
// tiles: W is partitioned into TileRows×TileCols slices, each programmed
// onto its own tile; partial sums along the input dimension are accumulated
// digitally after each tile's ADC, and the bias (when present) is added
// digitally — the direct analogue of aihwkit's AnalogLinear with mapped
// weights.
//
// When a NORA rescaling vector s is installed, the layer programs W⊙s
// (rows scaled by s_k, Eq. 6) and streams x⊘s (channels divided by s_k,
// Eq. 7); the product is mathematically unchanged while the non-ideality
// burden moves from the activations to the weights.
type AnalogLinear struct {
	name string
	cfg  Config
	in   int
	out  int
	bias []float32
	invS []float32 // nil when no rescaling is installed

	rowOff []int // tile-grid row boundaries (len = #rowBlocks+1)
	colOff []int // tile-grid column boundaries
	tiles  [][]mvmTile

	noise     *rng.Rand // runtime read-noise stream (un-scoped Forward calls)
	scopeRoot *rng.Rand // never advanced; WithNoiseScope splits labels off it

	rowsProcessed *atomic.Int64 // activation rows seen, shared across scoped views
}

var _ nn.NoiseScopedOp = (*AnalogLinear)(nil)

// NewAnalogLinear programs weight matrix w (in × out) onto tiles.
// bias may be nil. s may be nil (no rescaling) or a length-in positive
// vector (the NORA component). root seeds both programming and runtime
// noise streams; pass streams split per layer for reproducible experiments.
func NewAnalogLinear(name string, w *tensor.Matrix, bias []float32, s []float32, cfg Config, root *rng.Rand) *AnalogLinear {
	if cfg.TileRows <= 0 || cfg.TileCols <= 0 {
		panic("analog: non-positive tile dimensions")
	}
	if s != nil && len(s) != w.Rows {
		panic(fmt.Sprintf("analog: rescaling vector len %d, weight rows %d", len(s), w.Rows))
	}
	l := &AnalogLinear{
		name:          name,
		cfg:           cfg,
		in:            w.Rows,
		out:           w.Cols,
		noise:         root.Split("read"),
		scopeRoot:     root.Split("read-scope"),
		rowsProcessed: new(atomic.Int64),
	}
	if bias != nil {
		l.bias = append([]float32(nil), bias...)
	}
	ws := w
	if s != nil {
		l.invS = make([]float32, len(s))
		for k, v := range s {
			if v <= 0 {
				panic(fmt.Sprintf("analog: non-positive rescaling component s[%d] = %v", k, v))
			}
			l.invS[k] = 1 / v
		}
		ws = tensor.ScaleRows(w, s)
	}
	l.rowOff = partition(l.in, cfg.TileRows)
	l.colOff = partition(l.out, cfg.TileCols)
	prog := root.Split("program")
	for rb := 0; rb+1 < len(l.rowOff); rb++ {
		var row []mvmTile
		rows := ws.SliceRows(l.rowOff[rb], l.rowOff[rb+1])
		for cb := 0; cb+1 < len(l.colOff); cb++ {
			slice := rows.SliceCols(l.colOff[cb], l.colOff[cb+1])
			tr := prog.Split(fmt.Sprintf("tile%d.%d", rb, cb))
			if cfg.WeightSlices > 1 {
				bits := cfg.SliceBits
				if bits <= 0 {
					bits = 4
				}
				row = append(row, NewSlicedTile(cfg, slice, cfg.WeightSlices, bits, tr))
			} else {
				row = append(row, NewTile(cfg, slice, tr))
			}
		}
		l.tiles = append(l.tiles, row)
	}
	return l
}

// partition splits n into chunks of at most size, returning boundaries
// [0, size, 2·size, …, n].
func partition(n, size int) []int {
	offs := []int{0}
	for off := size; off < n; off += size {
		offs = append(offs, off)
	}
	return append(offs, n)
}

// Name implements nn.LinearOp.
func (l *AnalogLinear) Name() string { return l.name }

// WithNoiseScope implements nn.NoiseScopedOp: the returned view shares the
// programmed tiles and counters but draws its runtime read noise from a
// stream that is a pure function of (layer seed, label). Scoped views of
// the same layer under the same label always see identical noise, no matter
// how many other scopes ran before or concurrently — the property behind
// the engine's "parallel eval ≡ serial eval" determinism guarantee.
func (l *AnalogLinear) WithNoiseScope(label string) nn.LinearOp {
	view := *l
	view.noise = l.scopeRoot.Split(label)
	return &view
}

// InDim returns the input width.
func (l *AnalogLinear) InDim() int { return l.in }

// OutDim returns the output width.
func (l *AnalogLinear) OutDim() int { return l.out }

// Config returns the tile configuration in use.
func (l *AnalogLinear) Config() Config { return l.cfg }

// Tiles returns the tile grid (row-major); entries are *Tile or
// *SlicedTile depending on Config.WeightSlices.
func (l *AnalogLinear) Tiles() [][]mvmTile { return l.tiles }

// SetTime advances every tile to tSec seconds after programming (drift and
// 1/f read-noise study, paper §VII).
func (l *AnalogLinear) SetTime(tSec float64) {
	for _, row := range l.tiles {
		for _, t := range row {
			t.SetTime(tSec)
		}
	}
}

// Forward implements nn.LinearOp: every row of x is streamed through the
// tile grid, with digital accumulation of partial sums across input blocks.
func (l *AnalogLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, l.out)
	l.ForwardInto(out, x)
	return out
}

// ForwardInto is the zero-allocation forward pass: it overwrites out
// (x.Rows × OutDim) with the layer result, read from the layer's noise
// stream.
func (l *AnalogLinear) ForwardInto(out, x *tensor.Matrix) {
	if x.Cols != l.in {
		panic(fmt.Sprintf("analog: %s: input width %d, expected %d", l.name, x.Cols, l.in))
	}
	if out.Rows != x.Rows || out.Cols != l.out {
		panic(fmt.Sprintf("analog: %s: output %dx%d, expected %dx%d", l.name, out.Rows, out.Cols, x.Rows, l.out))
	}
	l.rowsProcessed.Add(int64(x.Rows))
	l.forward(out, x, nil)
}

// randsPool recycles the per-row stream slice of ForwardIntoRowScoped so the
// row-scoped read stays allocation-free in steady state.
var randsPool = sync.Pool{New: func() any { return new([]*rng.Rand) }}

// ForwardIntoRowScoped implements nn.NoiseScopedOp: row i of x is read
// under the noise stream of scopes[i] — each a WithNoiseScope view of this
// same layer — while the deterministic phase-1 work (α, DAC conversion, the
// blocked MAC) is shared across the whole batch. Row i's result and consumed
// draws are bit-identical to a single-row ForwardInto on scopes[i], which is
// what lets a continuous-batching decode step mix many requests in one
// analog read without entangling their noise streams: each request's output
// stays a pure function of (deployment, its own tokens), independent of
// batch composition.
func (l *AnalogLinear) ForwardIntoRowScoped(out, x *tensor.Matrix, scopes []nn.LinearOp) {
	if x.Cols != l.in {
		panic(fmt.Sprintf("analog: %s: input width %d, expected %d", l.name, x.Cols, l.in))
	}
	if out.Rows != x.Rows || out.Cols != l.out {
		panic(fmt.Sprintf("analog: %s: output %dx%d, expected %dx%d", l.name, out.Rows, out.Cols, x.Rows, l.out))
	}
	if len(scopes) != x.Rows {
		panic(fmt.Sprintf("analog: %s: %d noise scopes for %d rows", l.name, len(scopes), x.Rows))
	}
	np := randsPool.Get().(*[]*rng.Rand)
	noises := (*np)[:0]
	for _, op := range scopes {
		v, ok := op.(*AnalogLinear)
		if !ok || v.rowsProcessed != l.rowsProcessed {
			panic(fmt.Sprintf("analog: %s: scope operator is not a view of this layer", l.name))
		}
		noises = append(noises, v.noise)
	}
	*np = noises
	defer randsPool.Put(np)
	l.rowsProcessed.Add(int64(x.Rows))
	l.forward(out, x, noises)
}

// forward is the layer's one read loop. It streams x through the grid in
// chunks of up to chunkRows rows using the two-phase read (batch.go):
// phase 1 computes every tile's blocked MAC for the whole chunk with zero
// RNG draws; phase 2 walks the chunk's rows in order and finishes each tile
// in (row-block, column-block) order. Phase 2 consumes the noise stream in
// the same order for any chunking, so a chunk of T rows reads exactly like
// T single-row calls. noises, when non-nil, finishes row i under its own
// stream (ForwardIntoRowScoped): each stream is then consumed exactly as a
// single-row call on that scope would consume it.
func (l *AnalogLinear) forward(out, x *tensor.Matrix, noises []*rng.Rand) {
	s := getScratch()
	defer putScratch(s)
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	nrb := len(l.rowOff) - 1
	ncb := len(l.colOff) - 1
	ips := bs.inputPreps(nrb)
	preps := bs.tilePreps(nrb * ncb)
	for lo := 0; lo < x.Rows; lo += chunkRows {
		hi := lo + chunkRows
		if hi > x.Rows {
			hi = x.Rows
		}
		T := hi - lo
		bs.reset()
		// The chunk in tile units: with NORA rescaling installed the x⊘s
		// streaming step materializes a scaled copy; without it the chunk
		// is a zero-copy view over x's rows.
		var xsc *tensor.Matrix
		if l.invS != nil {
			xsc = bs.matrix(T, l.in)
			for i := 0; i < T; i++ {
				row := x.Row(lo + i)
				dst := xsc.Row(i)
				for k, v := range row {
					dst[k] = v * l.invS[k]
				}
			}
		} else {
			xsc = bs.viewOf(T, l.in, x.Data[lo*l.in:hi*l.in])
		}
		for rb := 0; rb < nrb; rb++ {
			// Tiles need their row block's columns contiguous; with a single
			// row block the whole chunk already is, otherwise copy the slice.
			xsub := xsc
			if nrb > 1 {
				cLo, cHi := l.rowOff[rb], l.rowOff[rb+1]
				xsub = bs.matrix(T, cHi-cLo)
				for i := 0; i < T; i++ {
					copy(xsub.Row(i), xsc.Row(i)[cLo:cHi])
				}
			}
			// All tiles in a row block share Config and input width, so one
			// input prep (α, X̂, ‖x̂‖²) serves the whole block.
			l.tiles[rb][0].prepareInputs(&ips[rb], xsub, bs)
			for cb := 0; cb < ncb; cb++ {
				l.tiles[rb][cb].runMAC(&preps[rb*ncb+cb], &ips[rb], bs)
			}
		}
		for i := 0; i < T; i++ {
			r := l.noise
			if noises != nil {
				r = noises[lo+i]
			}
			orow := out.Row(lo + i)
			for j := range orow {
				orow[j] = 0
			}
			for rb := 0; rb < nrb; rb++ {
				for cb := 0; cb < ncb; cb++ {
					l.tiles[rb][cb].finishRow(1, orow[l.colOff[cb]:l.colOff[cb+1]], &ips[rb], &preps[rb*ncb+cb], i, r, s)
				}
			}
		}
	}
	if l.bias != nil {
		out.AddRowVecInPlace(l.bias)
	}
}

// CostCounters aggregates hardware-event counts across the layer's tiles.
// The accumulator is function-local, so aggregation uses the non-atomic Add.
func (l *AnalogLinear) CostCounters() OpCounters {
	var total OpCounters
	for _, row := range l.tiles {
		for _, t := range row {
			total.Add(t.CounterSnapshot())
		}
	}
	return total
}

// ResetCost clears all tile counters (including every slice of a sliced
// tile) and the processed-row count.
func (l *AnalogLinear) ResetCost() {
	for _, row := range l.tiles {
		for _, t := range row {
			t.ResetCounters()
		}
	}
	l.rowsProcessed.Store(0)
}

// DigitalEquivalentMACs returns the number of digital multiply-accumulates
// an exact implementation of the processed workload would have executed.
func (l *AnalogLinear) DigitalEquivalentMACs() int64 {
	return l.rowsProcessed.Load() * int64(l.in) * int64(l.out)
}

// RowsProcessed returns the number of activation rows forwarded so far.
func (l *AnalogLinear) RowsProcessed() int64 { return l.rowsProcessed.Load() }

// AlphaGammaMean reports the average α_i·γ_j·g_max the layer would use on
// input x: the quantity Fig. 6(c) of the paper tracks (smaller means larger
// analog output currents and a higher SNR). The mean is taken per tile over
// input rows (α) and output columns (γ·g_max), then averaged across tiles.
func (l *AnalogLinear) AlphaGammaMean(x *tensor.Matrix) float64 {
	if x.Cols != l.in {
		panic("analog: AlphaGammaMean input width mismatch")
	}
	var total float64
	var nTiles int
	for rb := 0; rb+1 < len(l.rowOff); rb++ {
		lo, hi := l.rowOff[rb], l.rowOff[rb+1]
		var alphaMean float64
		for i := 0; i < x.Rows; i++ {
			// α of the row slice the tile sees — with any NORA rescaling
			// folded in on the fly instead of materializing ScaleCols(x,
			// invS) (callers stream calibration batches through here; the
			// full scaled copy was pure overhead).
			row := x.Row(i)[lo:hi]
			var mx float32
			if l.invS != nil {
				inv := l.invS[lo:hi]
				for k, v := range row {
					v *= inv[k]
					if v < 0 {
						v = -v
					}
					if v > mx {
						mx = v
					}
				}
			} else {
				mx = tensor.AbsMaxVec(row)
			}
			alphaMean += float64(mx)
		}
		alphaMean /= float64(x.Rows)
		for cb := 0; cb+1 < len(l.colOff); cb++ {
			var cMean float64
			scales := l.tiles[rb][cb].ColScales()
			for _, c := range scales {
				cMean += float64(c)
			}
			cMean /= float64(len(scales))
			total += float64(alphaMean * cMean)
			nTiles++
		}
	}
	return total / float64(nTiles)
}
