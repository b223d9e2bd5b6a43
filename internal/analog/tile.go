package analog

import (
	"fmt"
	"math"

	"nora/internal/rng"
	"nora/internal/tensor"
)

// irGamma is the bitline attenuation at full column load under
// IRDropScale = 1: a column sinking its maximum possible current loses 5%
// of its output. Typical activations load columns far below maximum, so
// the paper-preset effect is small — matching the observation that
// IR-drop barely moves transformer accuracy.
const irGamma = 0.05

// Tile models one analog crossbar holding a (rows × cols) slice of a weight
// matrix as unit-normalized conductances, programmed once at construction
// (write-verify with programming noise) and read by MVM. With
// Config.DifferentialPair each weight is a g⁺/g⁻ device pair; otherwise a
// signed-conductance abstraction is used.
type Tile struct {
	cfg  Config
	rows int
	cols int

	colScale []float32 // c_j = γ_j·g_max = max_k |w_kj| of the mapped slice

	// signed abstraction (DifferentialPair = false)
	wProg *tensor.Matrix // programmed normalized weights (t = 0)
	nu    *tensor.Matrix // per-device drift exponents

	// differential pairs (DifferentialPair = true)
	gPlus, gMinus   *tensor.Matrix // programmed unipolar conductances
	nuPlus, nuMinus *tensor.Matrix // per-device drift exponents

	wEff *tensor.Matrix // effective weights after drift
	absW *tensor.Matrix // |wEff|, built lazily for IR-drop load estimation

	adcOffset []float32 // static per-column ADC offset (nil when disabled)
	adcGain   []float32 // static per-column ADC gain (nil when disabled)

	readStd    float32 // additional 1/f read noise at the current time
	wReadSigma float32 // hypot(WNoise, readStd), cached off the read path
	driftComp  float32 // global drift compensation multiplier

	// Reciprocals of the DAC/ADC step counts, cached when the counts are
	// powers of two (0 otherwise): scaling by an exact power of two is
	// bit-identical whether done by division or by multiplication with the
	// reciprocal, so the read path can use the cheaper multiply.
	invInSteps  float32
	invOutSteps float32

	chipScale float32    // realized chip-to-chip G_max scale (1 when GMaxStd = 0)
	fstats    FaultStats // programming-time fault/mitigation statistics

	counters OpCounters // hardware-event counts for cost estimation
}

// NewTile programs the weight slice ws (rows × cols, already carrying any
// NORA pre-scaling) onto a tile. progRng drives programming noise, drift
// exponents and static ADC errors.
func NewTile(cfg Config, ws *tensor.Matrix, progRng *rng.Rand) *Tile {
	if ws.Rows > cfg.TileRows || ws.Cols > cfg.TileCols {
		panic(fmt.Sprintf("analog: weight slice %dx%d exceeds tile %dx%d",
			ws.Rows, ws.Cols, cfg.TileRows, cfg.TileCols))
	}
	t := &Tile{
		cfg:       cfg,
		rows:      ws.Rows,
		cols:      ws.Cols,
		colScale:  make([]float32, ws.Cols),
		driftComp: 1,
		chipScale: 1,
	}
	// Per-column scaling γ_j = max|w_j|/g_max (Eq. 4); colScale keeps the
	// full digital factor γ_j·g_max = max|w_j| so outputs rescale exactly.
	// Under PerTileScale every column shares the tile-wide maximum.
	for j := 0; j < ws.Cols; j++ {
		var mx float32
		for i := 0; i < ws.Rows; i++ {
			v := ws.At(i, j)
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		t.colScale[j] = mx
	}
	if cfg.PerTileScale {
		var mx float32
		for _, v := range t.colScale {
			if v > mx {
				mx = v
			}
		}
		for j := range t.colScale {
			if t.colScale[j] > 0 {
				t.colScale[j] = mx
			}
		}
	}
	ideal := tensor.New(ws.Rows, ws.Cols)
	for i := 0; i < ws.Rows; i++ {
		src := ws.Row(i)
		dst := ideal.Row(i)
		for j, v := range src {
			if t.colScale[j] == 0 {
				continue
			}
			dst[j] = v / t.colScale[j]
		}
	}
	if cfg.DifferentialPair {
		t.programDifferential(ideal, progRng)
	} else {
		t.programSigned(ideal, progRng)
	}
	if cfg.ADCOffset > 0 {
		t.adcOffset = make([]float32, ws.Cols)
		progRng.Split("adc-offset").FillNormal(t.adcOffset, 0, cfg.ADCOffset)
	}
	if cfg.ADCGainMismatch > 0 {
		t.adcGain = make([]float32, ws.Cols)
		progRng.Split("adc-gain").FillNormal(t.adcGain, 1, cfg.ADCGainMismatch)
	}
	t.wReadSigma = t.combinedReadSigma()
	if isPow2(cfg.InSteps) {
		t.invInSteps = 1 / float32(cfg.InSteps)
	}
	if isPow2(cfg.OutSteps) && cfg.OutBound > 0 {
		t.invOutSteps = 1 / float32(cfg.OutSteps)
	}
	if cfg.DriftT > 0 {
		t.SetTime(cfg.DriftT)
	}
	if cfg.IRDropScale > 0 {
		// Build the |wEff| load matrix eagerly: MVMRow may run concurrently
		// across evaluation sequences and must not race on lazy state.
		t.ensureAbsW()
	}
	return t
}

// progSigma is the conductance-dependent programming noise std for a
// unit-normalized conductance magnitude, under the tile's device
// polynomial (PCM-like by default).
func (t *Tile) progSigma(mag float32) float32 {
	c0, c1, c2 := float32(progC0), float32(progC1), float32(progC2)
	if t.cfg.ProgPoly != [3]float32{} {
		c0, c1, c2 = t.cfg.ProgPoly[0], t.cfg.ProgPoly[1], t.cfg.ProgPoly[2]
	}
	return t.cfg.ProgNoiseScale * (c0 + float32(c1*mag) + float32(c2*mag*mag))
}

// drawNu fills a matrix with clipped per-device drift exponents, scaled by
// the device's DriftScale (1.0 = PCM).
func (t *Tile) drawNu(r *rng.Rand) *tensor.Matrix {
	scale := t.cfg.DriftScale
	if scale == 0 {
		scale = 1
	}
	nu := tensor.New(t.rows, t.cols)
	r.FillNormal(nu.Data, driftNuMean, driftNuStd)
	for i, v := range nu.Data {
		if v < driftNuMin {
			v = driftNuMin
		} else if v > driftNuMax {
			v = driftNuMax
		}
		nu.Data[i] = v * scale
	}
	return nu
}

// writeVerify refines programmed values toward their targets: each
// iteration reads the device back (with the tile's short-term read noise)
// and programs the residual, with programming noise proportional to the
// correction magnitude. This models the paper's §II write-verify process;
// the residual error converges to the read-noise / minimum-pulse floor.
//
// Each iteration draws its 2·len(programmed) normals in one FillNormal, in
// the scalar order: cell i's read noise, then its programming noise.
func (t *Tile) writeVerify(programmed, ideal []float32, lo, hi float32, vr *rng.Rand) {
	if t.cfg.WriteVerify <= 0 {
		return
	}
	s := getScratch()
	defer putScratch(s)
	noise := grow(&s.norm, 2*len(programmed))
	for iter := 0; iter < t.cfg.WriteVerify; iter++ {
		vr.FillNormal(noise, 0, 1)
		for i := range programmed {
			read := programmed[i] + float32(t.cfg.WNoise*noise[2*i])
			resid := ideal[i] - read
			mag := resid
			if mag < 0 {
				mag = -mag
			}
			w := programmed[i] + resid + float32(t.progSigma(mag)*noise[2*i+1])
			if w > hi {
				w = hi
			} else if w < lo {
				w = lo
			}
			programmed[i] = w
		}
	}
}

// programSigned programs the idealized signed-conductance abstraction.
func (t *Tile) programSigned(ideal *tensor.Matrix, progRng *rng.Rand) {
	t.wProg = ideal.Clone()
	if t.cfg.ProgNoiseScale > 0 {
		s := getScratch()
		noise := grow(&s.norm, len(t.wProg.Data))
		progRng.Split("prog").FillNormal(noise, 0, 1)
		for i, w := range t.wProg.Data {
			mag := w
			if mag < 0 {
				mag = -mag
			}
			w += float32(t.progSigma(mag) * noise[i])
			if w > 1 {
				w = 1
			} else if w < -1 {
				w = -1
			}
			t.wProg.Data[i] = w
		}
		putScratch(s)
		t.writeVerify(t.wProg.Data, ideal.Data, -1, 1, progRng.Split("verify"))
	}
	var mask []uint8
	if !t.cfg.faultFree() {
		pl := &progPlane{programmed: t.wProg.Data, ideal: ideal.Data, lo: -1, hi: 1, signed: true}
		t.applyFaultModel([]*progPlane{pl}, progRng)
		mask = pl.mask
	}
	t.nu = t.drawNu(progRng.Split("nu"))
	zeroNuStuck(t.nu.Data, mask)
	t.wEff = t.wProg
}

// programDifferential programs each weight as a g⁺/g⁻ unipolar pair:
// w = g⁺ − g⁻ with g± ∈ [0, 1]. Only one device of each pair carries the
// weight; the other is programmed to (noisy) zero, so near-zero weights
// still suffer the full noise floor of two devices.
func (t *Tile) programDifferential(ideal *tensor.Matrix, progRng *rng.Rand) {
	t.gPlus = tensor.New(t.rows, t.cols)
	t.gMinus = tensor.New(t.rows, t.cols)
	for i, w := range ideal.Data {
		if w >= 0 {
			t.gPlus.Data[i] = w
		} else {
			t.gMinus.Data[i] = -w
		}
	}
	var idealPlus, idealMinus *tensor.Matrix
	if t.cfg.ProgNoiseScale > 0 || !t.cfg.faultFree() {
		idealPlus = t.gPlus.Clone()
		idealMinus = t.gMinus.Clone()
	}
	if t.cfg.ProgNoiseScale > 0 {
		// g⁺ and g⁻ draw from separate streams, so programming one plane
		// after the other keeps each stream's order.
		s := getScratch()
		noise := grow(&s.norm, len(t.gPlus.Data))
		program := func(plane []float32, label string) {
			progRng.Split(label).FillNormal(noise, 0, 1)
			for i, g := range plane {
				g += float32(t.progSigma(g) * noise[i])
				if g < 0 {
					g = 0
				} else if g > 1 {
					g = 1
				}
				plane[i] = g
			}
		}
		program(t.gPlus.Data, "prog+")
		program(t.gMinus.Data, "prog-")
		putScratch(s)
		t.writeVerify(t.gPlus.Data, idealPlus.Data, 0, 1, progRng.Split("verify+"))
		t.writeVerify(t.gMinus.Data, idealMinus.Data, 0, 1, progRng.Split("verify-"))
	}
	var maskP, maskM []uint8
	if !t.cfg.faultFree() {
		plP := &progPlane{programmed: t.gPlus.Data, ideal: idealPlus.Data, lo: 0, hi: 1, tag: "+"}
		plM := &progPlane{programmed: t.gMinus.Data, ideal: idealMinus.Data, lo: 0, hi: 1, tag: "-"}
		t.applyFaultModel([]*progPlane{plP, plM}, progRng)
		maskP, maskM = plP.mask, plM.mask
	}
	t.nuPlus = t.drawNu(progRng.Split("nu+"))
	t.nuMinus = t.drawNu(progRng.Split("nu-"))
	zeroNuStuck(t.nuPlus.Data, maskP)
	zeroNuStuck(t.nuMinus.Data, maskM)
	t.wEff = tensor.Sub(t.gPlus, t.gMinus)
	t.wProg = t.wEff // t=0 reference for SetTime(0) restoration
}

// Rows returns the mapped input dimension of this tile.
func (t *Tile) Rows() int { return t.rows }

// Cols returns the mapped output dimension of this tile.
func (t *Tile) Cols() int { return t.cols }

// ColScales returns the per-column digital scale factors γ_j·g_max.
func (t *Tile) ColScales() []float32 { return t.colScale }

// Counters exposes the tile's accumulated hardware-event counts.
func (t *Tile) Counters() *OpCounters { return &t.counters }

// CounterSnapshot returns a consistent copy of the tile's hardware events.
func (t *Tile) CounterSnapshot() OpCounters { return t.counters.Snapshot() }

// ResetCounters zeroes the tile's hardware-event counts.
func (t *Tile) ResetCounters() { t.counters.Reset() }

// SetTime advances the tile to time tSec since programming: conductances
// drift as ĝ·(t/t0)^(−ν) (clamped to never grow), the 1/f read-noise floor
// rises with √log(t), and — when DriftCompensation is set — a global
// compensation factor is measured from the mean conductance decay.
func (t *Tile) SetTime(tSec float64) {
	if tSec <= 0 {
		t.wEff = t.wProg
		t.absW = nil
		t.readStd = 0
		t.wReadSigma = t.combinedReadSigma()
		t.driftComp = 1
		if t.cfg.IRDropScale > 0 {
			t.ensureAbsW()
		}
		return
	}
	base := tSec / driftT0
	if base < 1 {
		base = 1 // no "reverse drift" before the reference time
	}
	logBase := math.Log(base)
	decay := func(g, nu float32) float32 {
		return float32(g * float32(math.Exp(-float64(nu)*logBase)))
	}
	t.wEff = tensor.New(t.rows, t.cols)
	t.absW = nil
	var sumProg, sumEff float64
	if t.cfg.DifferentialPair {
		for i := range t.gPlus.Data {
			gp := decay(t.gPlus.Data[i], t.nuPlus.Data[i])
			gm := decay(t.gMinus.Data[i], t.nuMinus.Data[i])
			t.wEff.Data[i] = gp - gm
			sumProg += float64(t.gPlus.Data[i] + t.gMinus.Data[i])
			sumEff += float64(gp + gm)
		}
	} else {
		for i, w := range t.wProg.Data {
			eff := decay(w, t.nu.Data[i])
			t.wEff.Data[i] = eff
			a, e := float64(w), float64(eff)
			if a < 0 {
				a, e = -a, -e
			}
			sumProg += a
			sumEff += e
		}
	}
	t.readStd = readNoise1F * float32(math.Sqrt(math.Log((tSec+tRead)/(2*tRead))))
	t.wReadSigma = t.combinedReadSigma()
	t.driftComp = 1
	if t.cfg.DriftCompensation && sumEff > 0 {
		t.driftComp = float32(sumProg / sumEff)
	}
	if t.cfg.IRDropScale > 0 {
		t.ensureAbsW()
	}
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// combinedReadSigma folds the short-term weight read noise and the current
// 1/f floor into one std, exactly as the read path historically computed it
// per read. Cached whenever readStd changes so MVMs skip the math.Hypot.
func (t *Tile) combinedReadSigma() float32 {
	return float32(math.Hypot(float64(t.cfg.WNoise), float64(t.readStd)))
}

// ensureAbsW builds the |wEff| matrix used to estimate column current load
// for IR-drop.
func (t *Tile) ensureAbsW() {
	if t.absW != nil {
		return
	}
	t.absW = tensor.Apply(t.wEff, func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	})
}

// MVMRow performs one analog matrix-vector multiplication: xs is the input
// slice in weight units (length Rows, already divided by any NORA s
// vector), and the result approximates xsᵀ·W_slice in the original scale.
// r drives every stochastic noise source of this read.
//
// MVMRow is the allocating single-row wrapper over MVMBatchInto: the same
// read at T = 1.
func (t *Tile) MVMRow(xs []float32, r *rng.Rand) []float32 {
	out := tensor.New(1, t.cols)
	xm := &tensor.Matrix{Rows: 1, Cols: len(xs), Data: xs}
	t.MVMBatchInto(1, out, xm, r)
	return out.Data
}

// rowAlpha returns the noise-management input scale α for one input row
// (Eq. 5). α = 0 marks a silent row: no draws, no counters, no output.
func (t *Tile) rowAlpha(xs []float32) float32 {
	switch t.cfg.NM {
	case NMAbsMax:
		return tensor.AbsMaxVec(xs)
	case NMConstant:
		return t.cfg.AlphaConst
	default:
		panic("analog: unknown noise management mode")
	}
}

// quantizeRowInto fills xhat with the DAC conversion of xs at input scale
// `scale` — the single f_dac implementation shared by phase 1 and the
// complete reads of finishRow.
func (t *Tile) quantizeRowInto(xhat, xs []float32, scale float32) {
	if inv := t.invInSteps; inv != 0 {
		// Power-of-two step count: replace quantizeUnit's final
		// division with an exact reciprocal multiply, in packed lanes.
		tensor.QuantizeUnitInto(xhat, xs, scale, float32(t.cfg.InSteps), inv)
		return
	}
	for k, v := range xs {
		xhat[k] = quantizeUnit(v/scale, t.cfg.InSteps)
	}
}

// drawsBeforeMAC reports whether a read draws noise before its crossbar
// MAC: bit-serial pulse planes and additive input noise do. Such reads get
// no phase-1 MAC; finishRow runs each of their attempts as a complete read.
func (t *Tile) drawsBeforeMAC() bool {
	return t.cfg.BitSerial || t.cfg.InNoise > 0
}

// finishRow runs phase 2 for row i and accumulates coef times the result
// into dst (dst[j] += coef·y_j, len(dst) = Cols): each bound-management
// attempt, the digital rescale and the event counters. Attempt 0 digitizes
// the phase-1 MAC row when there is one; otherwise, and on every retry at
// the doubled scale, the attempt is a complete read: DAC conversion, input
// noise and the crossbar read, or the bit-serial plane reads. coef folds a
// caller's digital shift-add weight (the slice radix power for SlicedTile)
// into the rescale. Rows must be finished in order with the caller's noise
// stream r — the draw order is the bit-exactness contract.
func (t *Tile) finishRow(coef float32, dst []float32, ip *inputPrep, p *tilePrep, i int, r *rng.Rand, s *readScratch) {
	scale := ip.alpha[i]
	if scale == 0 {
		return
	}
	cfg := &t.cfg
	maxIter := 1
	if cfg.BoundManagement {
		maxIter += cfg.BMMaxIter
	}
	attempts, reads := 0, 0
	for iter := 0; iter < maxIter; iter++ {
		attempts++
		var z []float32
		var saturated bool
		switch {
		case iter == 0 && p.z != nil:
			z = p.z.Row(i)
			var load []float32
			if p.load != nil {
				load = p.load.Row(i)
			}
			saturated = t.digitizeRow(z, ip.xnorm2[i], load, r)
			reads++
		case cfg.BitSerial:
			z = grow(&s.z, t.cols)
			saturated = t.bitSerialReadInto(z, ip.xs.Row(i), scale, r, s)
			reads += t.bitPlanes()
		default:
			// DAC conversion and additive input noise (Eq. 5).
			xhat := grow(&s.xhat, t.rows)
			t.quantizeRowInto(xhat, ip.xs.Row(i), scale)
			if cfg.InNoise > 0 {
				r.FillNormalAdd(xhat, cfg.InNoise)
			}
			z = grow(&s.z, t.cols)
			saturated = t.analogReadInto(z, xhat, r, s)
			reads++
		}

		// Bound management: on saturation, retry with inputs halved.
		if saturated && cfg.BoundManagement && iter < maxIter-1 {
			scale *= 2
			continue
		}

		// Digital rescale by α·γ_j·g_max (Eq. 3).
		tensor.RescaleAddInto(dst[:len(z)], t.colScale, z, coef, scale, t.driftComp)
		break
	}
	t.recordMVM(attempts, reads)
}

// norm2 returns ‖v‖² accumulated in float64 — the exact accumulation the
// read-noise model historically used.
func norm2(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(float64(x) * float64(x))
	}
	return s
}

// macRow computes the crossbar MAC z = x̂·W of one pulse vector and, when
// IR-drop is modelled, the column load |x̂|·|W| in the same fused pass,
// returned in s.load (nil without IR-drop). It is the per-row twin of
// runMAC, with the same bits.
func (t *Tile) macRow(z, xvec []float32, s *readScratch) (load []float32) {
	if t.cfg.IRDropScale <= 0 {
		tensor.VecMulInto(z, xvec, t.wEff)
		return nil
	}
	load = grow(&s.load, t.cols)
	tensor.VecMulAbsInto(z, load, xvec, t.wEff, t.absW)
	return load
}

// analogReadInto drives one physical crossbar read of the pulse vector xvec
// (normalized input units) into z (len = Cols, overwritten): analog MAC,
// then the digitizeRow tail (noise, IR-drop, nonlinearity, ADC). z is in
// normalized (post-ADC) output units.
func (t *Tile) analogReadInto(z, xvec []float32, r *rng.Rand, s *readScratch) (saturated bool) {
	load := t.macRow(z, xvec, s)
	var xnorm2 float64
	if t.wReadSigma > 0 {
		xnorm2 = norm2(xvec)
	}
	return t.digitizeRow(z, xnorm2, load, r)
}

// digitizeRow applies the post-MAC analog pipeline to one output row z:
// short-term weight read noise (from the precomputed ‖x̂‖²), deterministic
// IR-drop (from the precomputed column load, nil when disabled), S-shape
// nonlinearity, additive output noise, static ADC errors, saturation
// detection and ADC quantization. This is the single noise/ADC
// implementation every read mode funnels through; its draw order against r
// is the bit-exactness contract.
func (t *Tile) digitizeRow(z []float32, xnorm2 float64, load []float32, r *rng.Rand) (saturated bool) {
	cfg := &t.cfg

	// Short-term weight read noise: Σ_k x̂_k·σ_w·ξ_kj collapses to
	// N(0, σ_w²·‖x̂‖²) independently per column — exact in distribution,
	// avoiding rows×cols Gaussian draws per read. The 1/f read-noise floor
	// after drift adds the same way.
	if sigma := t.wReadSigma; sigma > 0 {
		sn := sigma * float32(math.Sqrt(xnorm2))
		r.FillNormalAdd(z, sn)
	}

	// Deterministic IR-drop: columns sinking more current droop more.
	if load != nil {
		tensor.IRDropInPlace(z, load, cfg.IRDropScale*irGamma, 1/float32(t.rows))
	}

	// S-shape device nonlinearity, then additive output noise.
	if cfg.SShape > 0 {
		for j := range z {
			z[j] = sShape(z[j], cfg.OutBound, cfg.SShape)
		}
	}
	if cfg.OutNoise > 0 {
		r.FillNormalAdd(z, cfg.OutNoise)
	}

	// Static ADC column errors (gain mismatch, then offset).
	if t.adcGain != nil {
		for j := range z {
			z[j] *= t.adcGain[j]
		}
	}
	if t.adcOffset != nil {
		for j := range z {
			z[j] += t.adcOffset[j]
		}
	}

	// Saturation detection, then ADC conversion.
	limit := cfg.OutBound * 0.999
	if inv := t.invOutSteps; inv != 0 {
		// Power-of-two step count: quantizeBounded's (…/half)·bound tail
		// becomes (…·inv)·bound — an exact reciprocal multiply, in packed
		// lanes.
		return tensor.ADCInPlace(z, limit, cfg.OutBound, float32(cfg.OutSteps), inv)
	}
	for j := range z {
		if z[j] >= limit || z[j] <= -limit {
			saturated = true
		}
		z[j] = quantizeBounded(z[j], cfg.OutBound, cfg.OutSteps)
	}
	return saturated
}

// bitPlanes returns the number of binary pulse planes needed to stream an
// InSteps-level input.
func (t *Tile) bitPlanes() int {
	planes := 0
	for s := t.cfg.InSteps; s > 0; s >>= 1 {
		planes++
	}
	if planes == 0 {
		planes = 1
	}
	return planes
}

// bitSerialReadInto streams the input as signed binary pulse planes into z
// (len = Cols, overwritten): the quantized integer magnitude
// m_k ∈ [−InSteps, InSteps] is decomposed into bits, each plane ±1/0 pulses
// drive one full analog read (with its own noise and ADC conversion), and
// the digitized planes are shift-added as z = Σ_b 2^b·z_b / InSteps.
// Requires InSteps > 0.
func (t *Tile) bitSerialReadInto(z, xs []float32, scale float32, r *rng.Rand, s *readScratch) (saturated bool) {
	cfg := &t.cfg
	if cfg.InSteps <= 0 {
		panic("analog: BitSerial requires InSteps > 0")
	}
	steps := float32(cfg.InSteps)
	mags := growI32(&s.mags, t.rows)
	signs := grow(&s.signs, t.rows)
	for k, v := range xs {
		q := v / scale
		if q > 1 {
			q = 1
		} else if q < -1 {
			q = -1
		}
		m := int32(math.Round(float64(q * steps)))
		if m < 0 {
			signs[k] = -1
			mags[k] = -m
		} else {
			signs[k] = 1
			mags[k] = m
		}
	}
	planes := t.bitPlanes()
	for j := range z {
		z[j] = 0
	}
	pulse := grow(&s.pulse, t.rows)
	zb := grow(&s.zb, t.cols)
	pow := float32(1)
	for b := 0; b < planes; b++ {
		for k := range pulse {
			var p float32
			if mags[k]&(1<<uint(b)) != 0 {
				p = signs[k]
			}
			pulse[k] = p
		}
		if cfg.InNoise > 0 {
			r.FillNormalAdd(pulse, cfg.InNoise)
		}
		sat := t.analogReadInto(zb, pulse, r, s)
		if sat {
			saturated = true
		}
		f := pow / steps
		for j := range z {
			z[j] += float32(f * zb[j])
		}
		pow *= 2
	}
	return saturated
}

// recordMVM folds one MVM (attempts bound-management attempts totalling
// the given number of physical crossbar reads) into the tile's
// hardware-event counters.
func (t *Tile) recordMVM(attempts, reads int) {
	n := int64(reads)
	t.counters.add(OpCounters{
		MVMs:      1,
		DACConvs:  n * int64(t.rows),
		ADCConvs:  n * int64(t.cols),
		CellReads: n * int64(t.rows) * int64(t.cols),
		BMRetries: int64(attempts) - 1,
	})
}
