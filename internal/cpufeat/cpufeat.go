// Package cpufeat probes the CPU, once at start-up, for the instruction-set
// extensions the packed kernels of internal/tensor and internal/rng need.
// Both packages read the probe here so one CPUID decision picks every
// kernel; none of them has a flag, config field or environment variable.
package cpufeat

// AVX2 reports whether the CPU supports AVX2 and the OS saves the YMM
// register state. Without it every packed kernel runs its portable twin,
// with the same bits.
var AVX2 = hasAVX2()
