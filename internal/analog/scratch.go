package analog

import "sync"

// readScratch owns every transient buffer one analog read chain needs, so
// the steady-state MVM path performs zero heap allocations. Tile
// programming leases one too, for the normals it draws in bulk. One scratch
// serves one goroutine's Forward pass at a time: AnalogLinear.ForwardInto
// leases a scratch from the pool on entry and returns it on exit, and every
// Tile/SlicedTile read threads the same scratch through its sub-calls
// (planes of a bit-serial read, slices of a SlicedTile) without conflict —
// each buffer below has exactly one writer at any point in the chain.
//
// Reusing buffers does not perturb results: all stochastic draws come from
// the *rng.Rand streams, whose order is untouched, and every buffer is
// fully overwritten (or explicitly zeroed) before it is read.
type readScratch struct {
	xhat  []float32 // DAC-converted pulse vector (voltage-mode read)
	pulse []float32 // per-plane pulses of a bit-serial read
	signs []float32 // bit-serial input signs
	mags  []int32   // bit-serial quantized input magnitudes
	z     []float32 // post-ADC column outputs of one MVM
	zb    []float32 // per-plane outputs shift-added into z (bit-serial)
	load  []float32 // IR-drop column load
	xrow  []float32 // rescaled input row (AnalogLinear with NORA s)
	comp  []float32 // shift-added composite of a SlicedTile read
	norm  []float32 // normals a programming loop draws in one FillNormal
}

var scratchPool = sync.Pool{New: func() any { return new(readScratch) }}

func getScratch() *readScratch  { return scratchPool.Get().(*readScratch) }
func putScratch(s *readScratch) { scratchPool.Put(s) }

// grow returns *buf resized to n elements, reallocating only when capacity
// is short. Contents are unspecified; callers overwrite every element they
// read.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI32 is grow for int32 buffers.
func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
