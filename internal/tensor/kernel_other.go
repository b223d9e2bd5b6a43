//go:build !amd64

package tensor

// Without an assembly kernel every entry point runs its portable twin.

const useAVX2 = false

func macPanel(dst, x, b []float32, ld int) { macPanelGeneric(dst, x, b, ld) }

func macAbsPanel(z, load, x, w, aw []float32, ld int) {
	macAbsPanelGeneric(z, load, x, w, aw, ld)
}

func absMaxBlock(v []float32) (float32, int) { return 0, 0 }

func quantizeBlock(dst, src []float32, scale, half, inv float32) int { return 0 }

func adcBlock(z []float32, limit, bound, half, inv float32) (int, bool) { return 0, false }

func irDropBlock(z, load []float32, drop, invRows float32) int { return 0 }

func rescaleAddBlock(dst, c, z []float32, coef, alpha, drift float32) int { return 0 }
