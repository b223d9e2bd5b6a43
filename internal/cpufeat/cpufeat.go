// Package cpufeat probes the CPU, once at start-up, for the instruction-set
// extensions the packed kernels of internal/tensor and internal/rng need.
// Both packages read the probe here so one CPUID decision picks every
// kernel; none of them has a flag, config field or environment variable.
//
// Under the purego build tag the probe reports nothing, so every package
// runs its portable twins on any CPU: the same bits on the code path other
// architectures take.
package cpufeat

// AVX2 reports whether the CPU supports AVX2 and the OS saves the YMM
// register state. Without it every packed kernel runs its portable twin,
// with the same bits.
var AVX2 = hasAVX2()

// FMA reports AVX2 plus the FMA3 extension (CPUID.1:ECX bit 12). The
// packed exp of internal/tensor needs both: it replays the FMA path of the
// standard library's amd64 math.Exp.
var FMA = AVX2 && hasFMA()
