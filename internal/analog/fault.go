package analog

import (
	"math"

	"nora/internal/rng"
)

// Device-fault models and programming-time mitigation.
//
// The tile non-idealities of the paper (programming noise, short-term read
// noise) are snapshots of a healthy array at t = 0. Real analog CIM
// deployments additionally face hard device faults — cells stuck at a
// conductance rail that ignore programming entirely — and chip-to-chip
// G_max transfer variation. This file adds both, plus the standard
// mitigation: a program-verify retry loop that re-programs cells whose
// realized conductance deviates from the target by more than a tolerance,
// and ROMER-style remapping of unfixable columns onto spare crossbar
// columns.
//
// Everything here runs once at programming time, driven by dedicated
// progRng.Split children ("fault", "pv", "spare", "gmax" — with "+"/"-"
// suffixes per differential-pair device plane), so faults are a pure
// function of the deployment seed and the config fingerprint: the same
// request always realizes the same fault pattern, and configurations with
// all fault fields zero draw nothing and program bit-identically to the
// pre-fault implementation.

// Per-device stuck-at states.
const (
	deviceHealthy uint8 = iota
	deviceStuckLo       // stuck at G_min (open / reset-stuck cell)
	deviceStuckHi       // stuck at G_max (shorted / set-stuck cell)
)

// Exported stuck-at states, for consumers of DrawStuckMask.
const (
	DeviceHealthy = deviceHealthy
	DeviceStuckLo = deviceStuckLo
	DeviceStuckHi = deviceStuckHi
)

// DrawStuckMask draws per-device stuck-at states with the exact procedure
// the programming pipeline uses (two uniforms per device, so the stream
// position is independent of the realized pattern). It is exported so
// train-time drop-connect (DropConnect) samples faults from the identical
// distribution the deployment realizes at programming time — one source of
// truth for fault statistics across training and inference.
func DrawStuckMask(r *rng.Rand, n int, rate, sa1 float32) []uint8 {
	return drawFaultMask(r, n, rate, sa1)
}

// FaultStats aggregates the programming-time fault and mitigation events of
// a tile (or a whole layer / deployment). All counts are fixed once
// programming finishes; reads during evaluation are safe.
type FaultStats struct {
	Devices      int64 // weight-bearing devices programmed (both pair devices count)
	Stuck        int64 // devices drawn stuck at a conductance rail
	PVWrites     int64 // re-program pulses issued by the program-verify retry loop
	RemappedCols int64 // columns re-routed to spare columns
	UnfixedCells int64 // devices left outside tolerance after all mitigation
}

// Add accumulates another set of fault statistics into f.
func (f *FaultStats) Add(o FaultStats) {
	f.Devices += o.Devices
	f.Stuck += o.Stuck
	f.PVWrites += o.PVWrites
	f.RemappedCols += o.RemappedCols
	f.UnfixedCells += o.UnfixedCells
}

// StuckFraction is the realized fraction of stuck devices (0 when no
// devices were programmed under the fault model).
func (f FaultStats) StuckFraction() float64 {
	if f.Devices == 0 {
		return 0
	}
	return float64(f.Stuck) / float64(f.Devices)
}

// UnfixedFraction is the fraction of devices left outside programming
// tolerance after all mitigation — the residual error that actually reaches
// inference, and the primary input to fleet health scoring (0 when no
// devices were programmed under the fault model).
func (f FaultStats) UnfixedFraction() float64 {
	if f.Devices == 0 {
		return 0
	}
	return float64(f.UnfixedCells) / float64(f.Devices)
}

// progPlane is one programmed device array (the signed abstraction's single
// plane, or one of the g⁺/g⁻ planes of a differential pair) threaded
// through the fault pipeline. programmed and ideal are row-major
// rows × cols; mask is populated by the pipeline when FaultRate > 0.
type progPlane struct {
	programmed []float32
	ideal      []float32
	mask       []uint8
	lo, hi     float32 // programmable conductance range
	signed     bool    // signed abstraction: stuck-at-G_max keeps the ideal sign
	tag        string  // rng label suffix: "" (signed), "+" or "-" (pair)
}

// drawFaultMask draws per-device stuck-at states. Two uniforms are consumed
// per device regardless of the outcome, so the stream position after the
// draw is independent of the realized fault pattern.
func drawFaultMask(r *rng.Rand, n int, rate, sa1 float32) []uint8 {
	mask := make([]uint8, n)
	for i := range mask {
		u := r.Float32()
		v := r.Float32()
		if u < rate {
			if v < sa1 {
				mask[i] = deviceStuckHi
			} else {
				mask[i] = deviceStuckLo
			}
		}
	}
	return mask
}

// pinStuck overwrites the programmed values of stuck devices with their
// rail conductance: G_min faults read as zero conductance; G_max faults as
// the full rail (carrying the ideal sign under the signed abstraction, so
// the column wiring stays consistent).
func pinStuck(pl *progPlane) {
	for i, m := range pl.mask {
		switch m {
		case deviceStuckLo:
			pl.programmed[i] = 0
		case deviceStuckHi:
			v := pl.hi
			if pl.signed && pl.ideal[i] < 0 {
				v = -v
			}
			pl.programmed[i] = v
		}
	}
}

// programCell issues one programming pulse toward target and, when the
// retry loop is enabled, up to cfg.PVRetries verify/re-program rounds: read
// back with the tile's short-term read noise, stop once within tolerance,
// otherwise re-program. Retry pulses are counted into the tile's
// FaultStats.
func (t *Tile) programCell(target, lo, hi float32, r *rng.Rand) float32 {
	pulse := func() float32 {
		mag := target
		if mag < 0 {
			mag = -mag
		}
		w := target + float32(t.progSigma(mag)*r.NormFloat32())
		if w > hi {
			w = hi
		} else if w < lo {
			w = lo
		}
		return w
	}
	w := pulse()
	tol := t.cfg.pvTol()
	for iter := 0; iter < t.cfg.PVRetries; iter++ {
		read := w + float32(t.cfg.WNoise*r.NormFloat32())
		dev := read - target
		if dev < 0 {
			dev = -dev
		}
		if dev <= tol {
			break
		}
		w = pulse()
		t.fstats.PVWrites++
	}
	return w
}

// pvRetry runs the program-verify retry mitigation over one plane: each
// pass reads every device back (with read noise) and re-programs the
// healthy cells that deviate from their target by more than the tolerance.
// Stuck devices ignore re-programming and are skipped — column remapping is
// their only recourse. The loop exits early once a pass fixes nothing.
func (t *Tile) pvRetry(pl *progPlane, r *rng.Rand) {
	tol := t.cfg.pvTol()
	for iter := 0; iter < t.cfg.PVRetries; iter++ {
		fixed := false
		for i := range pl.programmed {
			read := pl.programmed[i] + float32(t.cfg.WNoise*r.NormFloat32())
			dev := read - pl.ideal[i]
			if dev < 0 {
				dev = -dev
			}
			if dev <= tol {
				continue
			}
			if pl.mask != nil && pl.mask[i] != deviceHealthy {
				continue
			}
			mag := pl.ideal[i]
			if mag < 0 {
				mag = -mag
			}
			w := pl.ideal[i] + float32(t.progSigma(mag)*r.NormFloat32())
			if w > pl.hi {
				w = pl.hi
			} else if w < pl.lo {
				w = pl.lo
			}
			pl.programmed[i] = w
			t.fstats.PVWrites++
			fixed = true
		}
		if !fixed {
			break
		}
	}
}

// remapSpares re-routes columns that still hold an out-of-tolerance device
// after the retry loop onto spare crossbar columns: the spare is programmed
// from the ideal targets (with programming noise and its own per-cell
// verify retries) and replaces the column's realized conductances. Spares
// carry their own fault draws; faulty spares are skipped (consumed). Under
// a differential pair, a logical column occupies one spare column on both
// device planes, and either plane's deviation marks the column bad.
func (t *Tile) remapSpares(planes []*progPlane, progRng *rng.Rand) {
	S := t.cfg.SpareCols
	if S <= 0 {
		return
	}
	tol := t.cfg.pvTol()
	spareMasks := make([][]uint8, len(planes))
	if t.cfg.FaultRate > 0 {
		for pi, pl := range planes {
			spareMasks[pi] = drawFaultMask(progRng.Split("spare-fault"+pl.tag),
				t.rows*S, t.cfg.FaultRate, t.cfg.FaultSA1Frac)
		}
	}
	spareHealthy := func(s int) bool {
		for _, m := range spareMasks {
			if m == nil {
				continue
			}
			for i := 0; i < t.rows; i++ {
				if m[i*S+s] != deviceHealthy {
					return false
				}
			}
		}
		return true
	}
	colBad := func(j int) bool {
		for _, pl := range planes {
			for i := 0; i < t.rows; i++ {
				idx := i*t.cols + j
				dev := pl.programmed[idx] - pl.ideal[idx]
				if dev < 0 {
					dev = -dev
				}
				if dev > tol {
					return true
				}
			}
		}
		return false
	}
	prog := make([]*rng.Rand, len(planes))
	for pi, pl := range planes {
		prog[pi] = progRng.Split("spare-prog" + pl.tag)
	}
	next := 0
	for j := 0; j < t.cols; j++ {
		if !colBad(j) {
			continue
		}
		target := -1
		for next < S {
			s := next
			next++
			if spareHealthy(s) {
				target = s
				break
			}
		}
		if target < 0 {
			break // spares exhausted; remaining bad columns stay as programmed
		}
		for pi, pl := range planes {
			for i := 0; i < t.rows; i++ {
				idx := i*t.cols + j
				pl.programmed[idx] = t.programCell(pl.ideal[idx], pl.lo, pl.hi, prog[pi])
				if pl.mask != nil {
					// The logical column now lives on healthy spare devices.
					pl.mask[idx] = deviceHealthy
				}
			}
		}
		t.fstats.RemappedCols++
	}
}

// applyFaultModel runs the complete device-fault pipeline over the
// programmed planes: stuck-at fault draws and rail pinning, the
// program-verify retry loop, spare-column remapping, the chip-to-chip
// global conductance scale, and the final tolerance audit. It is a no-op
// (drawing nothing) when every fault field of the config is zero.
func (t *Tile) applyFaultModel(planes []*progPlane, progRng *rng.Rand) {
	if t.cfg.faultFree() {
		return
	}
	for _, pl := range planes {
		t.fstats.Devices += int64(len(pl.programmed))
	}
	if t.cfg.FaultRate > 0 {
		for _, pl := range planes {
			pl.mask = drawFaultMask(progRng.Split("fault"+pl.tag),
				len(pl.programmed), t.cfg.FaultRate, t.cfg.FaultSA1Frac)
			pinStuck(pl)
			for _, m := range pl.mask {
				if m != deviceHealthy {
					t.fstats.Stuck++
				}
			}
		}
	}
	if t.cfg.PVRetries > 0 {
		for _, pl := range planes {
			t.pvRetry(pl, progRng.Split("pv"+pl.tag))
		}
	}
	t.remapSpares(planes, progRng)
	tol := t.cfg.pvTol()
	for _, pl := range planes {
		for i := range pl.programmed {
			dev := pl.programmed[i] - pl.ideal[i]
			if dev < 0 {
				dev = -dev
			}
			if dev > tol {
				t.fstats.UnfixedCells++
			}
		}
	}
	if t.cfg.GMaxStd > 0 {
		// Chip-to-chip (macro-to-macro) G_max transfer variation: one
		// log-normal scale per tile multiplies every realized conductance —
		// stuck rails included, since a fault pins to *this* chip's rail.
		// The digital rescale chain assumes the nominal G_max, so the scale
		// error propagates straight to the outputs unless compensated.
		scale := float32(math.Exp(float64(t.cfg.GMaxStd) * progRng.Split("gmax").NormFloat64()))
		t.chipScale = scale
		for _, pl := range planes {
			for i := range pl.programmed {
				pl.programmed[i] *= scale
			}
		}
	}
}

// zeroNuStuck clears the drift exponents of stuck devices: a cell pinned at
// a rail does not undergo the structural relaxation behind conductance
// drift, and ν = 0 makes the drift decay an exact identity for it.
func zeroNuStuck(nu []float32, mask []uint8) {
	if mask == nil {
		return
	}
	for i, m := range mask {
		if m != deviceHealthy {
			nu[i] = 0
		}
	}
}

// FaultStats returns the tile's programming-time fault and mitigation
// statistics (all zero for fault-free configurations).
func (t *Tile) FaultStats() FaultStats { return t.fstats }

// FaultStats aggregates fault statistics across the composite's slices.
func (st *SlicedTile) FaultStats() FaultStats {
	var total FaultStats
	for _, s := range st.slices {
		total.Add(s.FaultStats())
	}
	return total
}

// FaultStats aggregates programming-time fault and mitigation statistics
// across the layer's tiles.
func (l *AnalogLinear) FaultStats() FaultStats {
	var total FaultStats
	for _, row := range l.tiles {
		for _, t := range row {
			total.Add(t.FaultStats())
		}
	}
	return total
}
