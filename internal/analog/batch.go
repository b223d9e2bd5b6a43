package analog

import (
	"fmt"
	"sync"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// The analog read.
//
// Every analog read — of one row or of many, through AnalogLinear or a
// standalone tile — runs as two phases over a block of T input rows:
//
//	phase 1 (deterministic, no RNG): per-row input scales α, the shared DAC
//	  conversion X̂, per-row ‖x̂‖², and one blocked matrix-matrix MAC per
//	  tile (fused with the IR-drop load MAC) for all T rows at once;
//	phase 2 (stochastic, sequential): for each row in order, for each tile
//	  in (row-block, col-block) order, the digitize tail — read noise,
//	  IR-drop, nonlinearity, ADC — plus bound-management retries and the
//	  digital rescale.
//
// Because phase 1 draws nothing and the blocked MAC is bit-identical to the
// per-row products (the tensor panel kernels accumulate in strict k order),
// phase 2 consumes the noise stream in the same order whatever the block
// size, and a block of T rows reads exactly like T blocks of one row. Modes
// that draw before the MAC (bit-serial pulse planes, additive input noise)
// get no phase-1 MAC: phase 2 runs each of their attempts as a complete
// read (see (*Tile).finishRow).

// chunkRows is the number of activation rows AnalogLinear reads per phase-1
// pass. It never changes results, only how many rows share one blocked MAC.
const chunkRows = 64

// inputPrep is the phase-1 state shared by every tile in one row-block of
// the grid (they all see the same input slice, hence the same α, X̂ and
// ‖x̂‖²; slices of a SlicedTile share it too).
type inputPrep struct {
	xs     *tensor.Matrix // tile-unit inputs, kept for bound-management retries
	alpha  []float32      // per-row input scale; 0 marks a silent row
	xnorm2 []float64      // per-row ‖x̂‖² for the collapsed read-noise model
	xhat   *tensor.Matrix // DAC-converted inputs at the first-attempt scales (nil without a phase-1 MAC)
}

// tilePrep is the phase-1 result of one tile: the batched MAC block and,
// when IR-drop is enabled, the batched column loads. For a SlicedTile the
// composite keeps one sub-prep per weight slice.
type tilePrep struct {
	z    *tensor.Matrix // T×cols MAC x̂·W at the first-attempt scales (nil without a phase-1 MAC)
	load *tensor.Matrix // T×cols IR-drop column loads (nil unless enabled)
	subs []tilePrep     // per-slice preps of a SlicedTile composite
}

// batchScratch reuses every buffer of a batched forward call. Buffers are
// leased in call order and lease i always lands on slot i, so after the
// first call every slot's capacity fits and the steady state allocates
// nothing — the same discipline as readScratch, extended to matrices.
type batchScratch struct {
	mats []tensor.Matrix
	nm   int
	f32s [][]float32
	n32  int
	f64s [][]float64
	n64  int
	vs   []tensor.Matrix // header-only views over caller storage
	nv   int

	ips   []inputPrep
	preps []tilePrep
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch  { return batchPool.Get().(*batchScratch) }
func putBatchScratch(b *batchScratch) { batchPool.Put(b) }

// reset rewinds the lease counters; slot storage (and the capacities grown
// into it) is retained for reuse.
func (b *batchScratch) reset() {
	b.nm, b.n32, b.n64, b.nv = 0, 0, 0, 0
}

// matrix leases a rows×cols matrix. Contents are unspecified; callers
// overwrite every element they read.
func (b *batchScratch) matrix(rows, cols int) *tensor.Matrix {
	if b.nm == len(b.mats) {
		b.mats = append(b.mats, tensor.Matrix{})
	}
	m := &b.mats[b.nm]
	b.nm++
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
}

// viewOf leases a matrix header over caller-owned storage — a zero-copy
// window into contiguous rows of an existing matrix. The header lives in
// the arena so taking its address does not allocate.
func (b *batchScratch) viewOf(rows, cols int, data []float32) *tensor.Matrix {
	if b.nv == len(b.vs) {
		b.vs = append(b.vs, tensor.Matrix{})
	}
	m := &b.vs[b.nv]
	b.nv++
	m.Rows, m.Cols, m.Data = rows, cols, data
	return m
}

// floats leases a float32 slice of length n.
func (b *batchScratch) floats(n int) []float32 {
	if b.n32 == len(b.f32s) {
		b.f32s = append(b.f32s, nil)
	}
	s := grow(&b.f32s[b.n32], n)
	b.n32++
	return s
}

// floats64 leases a float64 slice of length n.
func (b *batchScratch) floats64(n int) []float64 {
	if b.n64 == len(b.f64s) {
		b.f64s = append(b.f64s, nil)
	}
	buf := &b.f64s[b.n64]
	b.n64++
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// inputPreps returns n input-prep slots (stable across calls, so sub-slice
// capacities survive reuse).
func (b *batchScratch) inputPreps(n int) []inputPrep {
	if cap(b.ips) < n {
		ips := make([]inputPrep, n)
		copy(ips, b.ips)
		b.ips = ips
	}
	b.ips = b.ips[:n]
	return b.ips
}

// tilePreps returns n tile-prep slots (stable across calls).
func (b *batchScratch) tilePreps(n int) []tilePrep {
	if cap(b.preps) < n {
		preps := make([]tilePrep, n)
		copy(preps, b.preps)
		b.preps = preps
	}
	b.preps = b.preps[:n]
	return b.preps
}

// prepareInputs runs the RNG-free input phase over the T rows of xs: the
// noise-management scale α = max_k |x_k| per row (Eq. 5) and, for reads
// with a phase-1 MAC, the shared DAC conversion and ‖x̂‖². Rows with α = 0
// are zeroed (they contribute nothing and draw nothing in phase 2).
func (t *Tile) prepareInputs(ip *inputPrep, xs *tensor.Matrix, bs *batchScratch) {
	T := xs.Rows
	ip.xs = xs
	ip.alpha = bs.floats(T)
	if t.drawsBeforeMAC() {
		ip.xhat, ip.xnorm2 = nil, nil
		for i := 0; i < T; i++ {
			ip.alpha[i] = tensor.AbsMaxVec(xs.Row(i))
		}
		return
	}
	ip.xnorm2 = bs.floats64(T)
	ip.xhat = bs.matrix(T, t.rows)
	for i := 0; i < T; i++ {
		row := xs.Row(i)
		xh := ip.xhat.Row(i)
		a := tensor.AbsMaxVec(row)
		ip.alpha[i] = a
		if a == 0 {
			clear(xh)
			ip.xnorm2[i] = 0
			continue
		}
		t.quantizeRowInto(xh, row, a)
		// ‖x̂‖² is computed unconditionally (not only when wReadSigma > 0):
		// it is deterministic, cheap next to the MAC, and keeps the prep
		// valid even if individual tiles were advanced to different times.
		ip.xnorm2[i] = norm2(xh)
	}
}

// runMAC leases the tile's phase-1 result matrices from the arena and runs
// the blocked MAC into them — with IR-drop, x̂·W and the column load
// |x̂|·|W| in one fused pass. A read that draws before its MAC has no phase
// 1 and leases nothing. The serial kernels keep the read allocation-free
// and bit-identical to the per-row reads of macRow.
func (t *Tile) runMAC(p *tilePrep, ip *inputPrep, bs *batchScratch) {
	p.z, p.load = nil, nil
	if ip.xhat == nil {
		return
	}
	T := ip.xhat.Rows
	p.z = bs.matrix(T, t.cols)
	if t.cfg.IRDropScale <= 0 {
		tensor.MatMulSerialInto(p.z, ip.xhat, t.wEff)
		return
	}
	p.load = bs.matrix(T, t.cols)
	tensor.MatMulAbsSerialInto(p.z, p.load, ip.xhat, t.wEff, t.absW)
}

// mvmBatchInto is the shared standalone read behind (*Tile).MVMBatchInto
// and (*SlicedTile).MVMBatchInto: the two read phases on one tile.
func mvmBatchInto(t mvmTile, coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	if xs.Cols != t.Rows() {
		panic(fmt.Sprintf("analog: MVMBatchInto input width %d, tile rows %d", xs.Cols, t.Rows()))
	}
	if dst.Rows != xs.Rows || dst.Cols != t.Cols() {
		panic(fmt.Sprintf("analog: MVMBatchInto dst %dx%d, expected %dx%d", dst.Rows, dst.Cols, xs.Rows, t.Cols()))
	}
	s := getScratch()
	defer putScratch(s)
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	bs.reset()
	ips := bs.inputPreps(1)
	preps := bs.tilePreps(1)
	t.prepareInputs(&ips[0], xs, bs)
	t.runMAC(&preps[0], &ips[0], bs)
	for i := 0; i < xs.Rows; i++ {
		t.finishRow(coef, dst.Row(i), &ips[0], &preps[0], i, r, s)
	}
}

// MVMBatchInto performs the analog MVM for all T rows of xs (T×Rows) in one
// blocked two-phase pass, accumulating coef times row i's result into
// dst.Row(i) (dst is T×Cols). Results and consumed noise draws are
// bit-identical to T single-row reads in row order.
func (t *Tile) MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	mvmBatchInto(t, coef, dst, xs, r)
}

// MVMBatchInto is the batched read of the sliced composite; see
// (*Tile).MVMBatchInto for the contract.
func (st *SlicedTile) MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	mvmBatchInto(st, coef, dst, xs, r)
}
