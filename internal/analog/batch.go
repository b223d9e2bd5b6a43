package analog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// Sequence-batched analog reads.
//
// The historical read path streams one activation row at a time through
// MVMRowInto: quantize, MAC, noise, ADC, rescale — per row, per tile. The
// batched path splits that into two phases over a T-row block:
//
//	phase 1 (deterministic, no RNG): per-row input scales α, the shared DAC
//	  conversion X̂, per-row ‖x̂‖², and one blocked matrix-matrix MAC per
//	  tile (fused with the IR-drop load MAC) for all T rows at once;
//	phase 2 (stochastic, sequential): for each row in order, for each tile
//	  in the historical (row-block, col-block) order, the digitize tail —
//	  read noise, IR-drop, nonlinearity, ADC — plus bound-management
//	  retries and the digital rescale.
//
// Because phase 1 draws nothing and the blocked MAC is bit-identical to the
// per-row products (the tensor panel kernels accumulate in strict k order),
// phase 2 consumes the noise stream in exactly the historical order and the
// batched result is bit-identical to the row loop. Modes that draw *before* the MAC
// (bit-serial pulse planes, additive input noise) cannot be split this way
// and fall back to the row loop — see (*Tile).batchable.

// DefaultBatchRows is the activation-row chunk size of the batched forward
// path when no override is installed (SetDefaultBatchRows, engine config or
// the cmd -batch flag). Batch size never changes results — only how many
// rows share one phase-1 pass — so it is a runtime knob, not part of the
// config fingerprint.
const DefaultBatchRows = 64

var batchRowsOverride atomic.Int32

// SetDefaultBatchRows sets the process-wide batch size for analog forward
// passes: n ≥ 2 batches n rows per pass, n == 1 disables batching (the
// row-at-a-time legacy loop), and n ≤ 0 restores DefaultBatchRows.
func SetDefaultBatchRows(n int) {
	if n <= 0 {
		batchRowsOverride.Store(0)
		return
	}
	batchRowsOverride.Store(int32(n))
}

// BatchRows returns the effective process-wide batch size.
func BatchRows() int {
	if n := batchRowsOverride.Load(); n > 0 {
		return int(n)
	}
	return DefaultBatchRows
}

var macWorkersN atomic.Int32

// SetMACWorkers sets the goroutine count for phase-1 MAC execution across a
// layer's column/row tile panels. n ≤ 1 keeps the serial default — the
// right choice when sequence-level eval parallelism already saturates the
// cores, and the configuration under which the batch path is
// allocation-free. Parallelism never changes results: phase 1 is
// deterministic and every worker writes disjoint per-tile buffers.
func SetMACWorkers(n int) {
	if n < 0 {
		n = 0
	}
	macWorkersN.Store(int32(n))
}

// MACWorkers returns the effective phase-1 worker count (≥ 1).
func MACWorkers() int {
	if n := macWorkersN.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// inputPrep is the phase-1 state shared by every tile in one row-block of
// the grid (they all see the same input slice, hence the same α, X̂ and
// ‖x̂‖²; slices of a SlicedTile share it too).
type inputPrep struct {
	xs     *tensor.Matrix // tile-unit inputs, kept for bound-management retries
	alpha  []float32      // per-row input scale; 0 marks a silent row
	xnorm2 []float64      // per-row ‖x̂‖² for the collapsed read-noise model
	xhat   *tensor.Matrix // DAC-converted inputs at the first-attempt scales
}

// tilePrep is the phase-1 result of one tile: the batched MAC block and,
// when IR-drop is enabled, the batched column loads. For a SlicedTile the
// composite keeps one sub-prep per weight slice.
type tilePrep struct {
	z    *tensor.Matrix // T×cols MAC x̂·W at the first-attempt scales
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

// prepareInputs runs the RNG-free input phase over the T rows of xs: α per
// row, the shared DAC conversion and ‖x̂‖². Rows with α = 0 are zeroed (they
// contribute nothing and, matching the scalar path, draw nothing in phase 2).
func (t *Tile) prepareInputs(ip *inputPrep, xs *tensor.Matrix, bs *batchScratch) {
	T := xs.Rows
	ip.xs = xs
	ip.alpha = bs.floats(T)
	ip.xnorm2 = bs.floats64(T)
	ip.xhat = bs.matrix(T, t.rows)
	for i := 0; i < T; i++ {
		row := xs.Row(i)
		xh := ip.xhat.Row(i)
		a := t.rowAlpha(row)
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

// leaseMAC sizes the tile's phase-1 result matrices from the arena. Not
// safe for concurrent use (the arena is single-writer); runMAC is.
func (t *Tile) leaseMAC(p *tilePrep, ip *inputPrep, bs *batchScratch) {
	T := ip.xhat.Rows
	p.z = bs.matrix(T, t.cols)
	if t.cfg.IRDropScale > 0 {
		p.load = bs.matrix(T, t.cols)
	} else {
		p.load = nil
	}
}

// runMAC executes the tile's batched MAC into the leased matrices — with
// IR-drop, x̂·W and the column load |x̂|·|W| in one fused pass. It touches
// only p's buffers and read-only tile state, so distinct tiles may run
// concurrently (SetMACWorkers). The serial kernels keep the path
// allocation-free and bit-identical to the per-row reads of macRow.
func (t *Tile) runMAC(p *tilePrep, ip *inputPrep) {
	if p.load != nil {
		tensor.MatMulAbsSerialInto(p.z, p.load, ip.xhat, t.wEff, t.absW)
		return
	}
	tensor.MatMulSerialInto(p.z, ip.xhat, t.wEff)
}

// finishRow runs phase 2 for row i: the stochastic digitize tail over the
// precomputed MAC row, bound-management retries, and the digital rescale
// into dst. Must be called in row order with the same r the scalar loop
// would use — that is what keeps the batch bit-identical.
func (t *Tile) finishRow(coef float32, dst []float32, ip *inputPrep, p *tilePrep, i int, r *rng.Rand, s *readScratch) {
	alpha := ip.alpha[i]
	if alpha == 0 {
		return
	}
	var load []float32
	if p.load != nil {
		load = p.load.Row(i)
	}
	t.finishRowCore(coef, dst, p.z.Row(i), ip.xnorm2[i], load, ip.xs.Row(i), alpha, r, s)
}

// mvmBatchInto is the shared standalone batch driver behind
// (*Tile).MVMBatchInto and (*SlicedTile).MVMBatchInto.
func mvmBatchInto(t mvmTile, coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	if xs.Cols != t.Rows() {
		panic(fmt.Sprintf("analog: MVMBatchInto input width %d, tile rows %d", xs.Cols, t.Rows()))
	}
	if dst.Rows != xs.Rows || dst.Cols != t.Cols() {
		panic(fmt.Sprintf("analog: MVMBatchInto dst %dx%d, expected %dx%d", dst.Rows, dst.Cols, xs.Rows, t.Cols()))
	}
	s := getScratch()
	defer putScratch(s)
	if !t.batchable() {
		// Pre-MAC draws (bit-serial, input noise): the row loop is the
		// contract, and trivially bit-identical to itself.
		for i := 0; i < xs.Rows; i++ {
			t.MVMRowInto(coef, dst.Row(i), xs.Row(i), r, s)
		}
		return
	}
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	bs.reset()
	ips := bs.inputPreps(1)
	preps := bs.tilePreps(1)
	t.prepareInputs(&ips[0], xs, bs)
	t.leaseMAC(&preps[0], &ips[0], bs)
	t.runMAC(&preps[0], &ips[0])
	for i := 0; i < xs.Rows; i++ {
		t.finishRow(coef, dst.Row(i), &ips[0], &preps[0], i, r, s)
	}
}

// MVMBatchInto performs the analog MVM for all T rows of xs (T×Rows) in one
// blocked two-phase pass, accumulating coef times row i's result into
// dst.Row(i) (dst is T×Cols). Results and consumed noise draws are
// bit-identical to calling MVMRowInto for each row in order; modes that
// cannot batch (bit-serial, input noise) do exactly that internally.
func (t *Tile) MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	mvmBatchInto(t, coef, dst, xs, r)
}

// MVMBatchInto is the batched read of the sliced composite; see
// (*Tile).MVMBatchInto for the contract.
func (st *SlicedTile) MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand) {
	mvmBatchInto(st, coef, dst, xs, r)
}

// runPanels executes fn(0..n-1) on up to `workers` goroutines, pulling
// panel indices from a shared counter. workers ≤ 1 runs inline.
func runPanels(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
