package analog

import (
	"fmt"
	"math"
	"sync/atomic"
)

// OpCounters accumulates the hardware events of a tile (or a whole
// AnalogLinear) needed for energy/latency estimation. The paper defers
// power/area/latency evaluation to future work (§VII); this implements the
// standard counting model those evaluations use. Counters are atomic so
// concurrent experiment points sharing a deployment stay consistent.
type OpCounters struct {
	MVMs      int64 `json:"mvms"`       // analog matrix-vector multiplications issued
	DACConvs  int64 `json:"dac_convs"`  // input conversions (one per wordline per attempt)
	ADCConvs  int64 `json:"adc_convs"`  // output conversions (one per bitline per attempt)
	CellReads int64 `json:"cell_reads"` // crossbar cell activations (rows × cols per attempt)
	BMRetries int64 `json:"bm_retries"` // bound-management re-runs (extra attempts)
}

// Add accumulates o into c with plain (non-atomic) stores. It is the
// aggregation path for combining Snapshot values into a function-local or
// otherwise unshared accumulator, where atomics would be pure overhead. For
// counters that are concurrently written on the read hot path, use the
// atomic twin add.
func (c *OpCounters) Add(o OpCounters) {
	c.MVMs += o.MVMs
	c.DACConvs += o.DACConvs
	c.ADCConvs += o.ADCConvs
	c.CellReads += o.CellReads
	c.BMRetries += o.BMRetries
}

// add is the atomic hot-path twin of Add: it accumulates o into a counter
// set that concurrent readers may Snapshot mid-flight (e.g. a tile's live
// counters while experiment points share the deployment).
func (c *OpCounters) add(o OpCounters) {
	atomic.AddInt64(&c.MVMs, o.MVMs)
	atomic.AddInt64(&c.DACConvs, o.DACConvs)
	atomic.AddInt64(&c.ADCConvs, o.ADCConvs)
	atomic.AddInt64(&c.CellReads, o.CellReads)
	atomic.AddInt64(&c.BMRetries, o.BMRetries)
}

// Snapshot returns a consistent copy of the counters.
func (c *OpCounters) Snapshot() OpCounters {
	return OpCounters{
		MVMs:      atomic.LoadInt64(&c.MVMs),
		DACConvs:  atomic.LoadInt64(&c.DACConvs),
		ADCConvs:  atomic.LoadInt64(&c.ADCConvs),
		CellReads: atomic.LoadInt64(&c.CellReads),
		BMRetries: atomic.LoadInt64(&c.BMRetries),
	}
}

// Reset zeroes the counters.
func (c *OpCounters) Reset() {
	atomic.StoreInt64(&c.MVMs, 0)
	atomic.StoreInt64(&c.DACConvs, 0)
	atomic.StoreInt64(&c.ADCConvs, 0)
	atomic.StoreInt64(&c.CellReads, 0)
	atomic.StoreInt64(&c.BMRetries, 0)
}

// CostModel holds per-event energy (pJ) and latency (ns) constants. The
// defaults are representative mid-2020s estimates from the analog-CIM
// literature (ISAAC-class crossbars, SAR ADCs, 7-bit converters, 8-bit
// digital MACs with local SRAM access); they set relative magnitudes, not
// silicon-exact numbers.
// The JSON names double as the override keys of CostModel.Set (the
// -costmodel flag's k=v syntax), so renaming a tag is a flag-surface break.
type CostModel struct {
	DACEnergyPJ      float64 `json:"dac_pj"`  // per input conversion
	ADCEnergyPJ      float64 `json:"adc_pj"`  // per output conversion
	CellReadEnergyPJ float64 `json:"cell_pj"` // per crossbar cell per MVM attempt
	DigitalMACPJ     float64 `json:"mac_pj"`  // per 8-bit digital MAC incl. operand access

	TileMVMLatencyNS float64 `json:"mvm_ns"`      // per analog MVM attempt (conversion + settle)
	DigitalMACPerNS  float64 `json:"macs_per_ns"` // digital MACs retired per ns (effective)
	DigitalRowOverNS float64 `json:"row_ns"`      // per-row digital pipeline overhead
}

// Set overrides one constant by its JSON/flag key (see the struct tags).
func (m *CostModel) Set(key string, v float64) error {
	switch key {
	case "dac_pj":
		m.DACEnergyPJ = v
	case "adc_pj":
		m.ADCEnergyPJ = v
	case "cell_pj":
		m.CellReadEnergyPJ = v
	case "mac_pj":
		m.DigitalMACPJ = v
	case "mvm_ns":
		m.TileMVMLatencyNS = v
	case "macs_per_ns":
		m.DigitalMACPerNS = v
	case "row_ns":
		m.DigitalRowOverNS = v
	default:
		return fmt.Errorf("analog: unknown cost-model key %q (want dac_pj, adc_pj, cell_pj, mac_pj, mvm_ns, macs_per_ns, or row_ns)", key)
	}
	return nil
}

// ADCRefBits is the converter resolution the default ADC energy constant
// is calibrated at (the paper preset's 7-bit converters).
const ADCRefBits = 7

// WithADCBits returns m with the per-conversion ADC energy rescaled for a
// b-bit converter relative to the ADCRefBits reference, following the
// Walden figure-of-merit scaling E ∝ 2^b. The counters themselves are
// resolution-blind (one ADCConv per bitline per attempt), so design-space
// sweeps over converter resolution price each configuration through this
// scaling rather than through the event counts.
func (m CostModel) WithADCBits(bits int) CostModel {
	if bits > 0 {
		m.ADCEnergyPJ *= math.Pow(2, float64(bits-ADCRefBits))
	}
	return m
}

// DefaultCostModel returns the documented default constants.
func DefaultCostModel() CostModel {
	return CostModel{
		DACEnergyPJ:      0.17,
		ADCEnergyPJ:      1.6,
		CellReadEnergyPJ: 0.001,
		DigitalMACPJ:     1.2,
		TileMVMLatencyNS: 100,
		DigitalMACPerNS:  1000, // ~1 TMAC/s effective
		DigitalRowOverNS: 5,
	}
}

// CostReport is the estimated cost of a counted workload.
type CostReport struct {
	EnergyPJ  float64    `json:"energy_pj"`
	LatencyNS float64    `json:"latency_ns"`
	Counters  OpCounters `json:"counters"`
}

// AnalogCost estimates energy and latency for the counted analog events.
// Latency assumes tiles within one layer operate in parallel, so the MVM
// count is divided by tiles-per-layer stages only through the caller's
// counting (each MVMRow is one sequential attempt here — a conservative
// serial bound).
func (m CostModel) AnalogCost(c OpCounters) CostReport {
	energy := float64(float64(c.DACConvs)*m.DACEnergyPJ) +
		float64(float64(c.ADCConvs)*m.ADCEnergyPJ) +
		float64(float64(c.CellReads)*m.CellReadEnergyPJ)
	latency := float64(c.MVMs+c.BMRetries) * m.TileMVMLatencyNS
	return CostReport{EnergyPJ: energy, LatencyNS: latency, Counters: c}
}

// DigitalCost estimates the cost of executing the same linear layers as
// rows×in×out digital MACs.
func (m CostModel) DigitalCost(macs int64, rows int64) CostReport {
	return CostReport{
		EnergyPJ:  float64(macs) * m.DigitalMACPJ,
		LatencyNS: float64(macs)/m.DigitalMACPerNS + float64(float64(rows)*m.DigitalRowOverNS),
	}
}

// CostComparison pairs the analog cost estimate for a counted workload with
// the digital-MAC baseline for the same linear-layer work.
type CostComparison struct {
	Analog  CostReport `json:"analog"`
	Digital CostReport `json:"digital"`
	// EnergySaving is digital energy / analog energy (0 with no analog work).
	EnergySaving float64 `json:"energy_saving"`
	// Speedup is digital latency / analog latency (0 with no analog work).
	Speedup float64 `json:"speedup"`
}

// Compare estimates both sides for counted analog events against macs
// digital MACs over rows activation rows.
func (m CostModel) Compare(c OpCounters, macs, rows int64) CostComparison {
	a := m.AnalogCost(c)
	d := m.DigitalCost(macs, rows)
	cmp := CostComparison{Analog: a, Digital: d}
	if a.EnergyPJ > 0 {
		cmp.EnergySaving = d.EnergyPJ / a.EnergyPJ
	}
	if a.LatencyNS > 0 {
		cmp.Speedup = d.LatencyNS / a.LatencyNS
	}
	return cmp
}
