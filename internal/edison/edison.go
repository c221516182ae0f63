// Package edison models the execution time and energy of neural-network
// inference on an Intel Edison class device (Atom SoC, dual core, 500 MHz,
// 1 GB RAM — the paper's testbed, §IV-A).
//
// Substitution note (see DESIGN.md): the paper measures wall-clock time and
// energy on physical Edison hardware running a TensorFlow-style graph
// executor. We reproduce those measurements with an analytic cost model:
// every estimator reports a Cost — dense-kernel FLOPs plus element-wise
// tensor-op invocations — and the Device converts that into milliseconds and
// millijoules using an effective scalar throughput, a per-element graph-op
// overhead, and an active-power figure. The paper's headline system results
// are *ratios* between estimators on identical hardware, which an
// FLOP-proportional model reproduces by construction; the constants below
// are calibrated so absolute magnitudes also land in the paper's reported
// ranges (hundreds of ms / mJ for 5-layer 512-wide networks).
package edison

import (
	"errors"
	"fmt"
)

// ErrConfig is returned (wrapped) for invalid device configurations.
var ErrConfig = errors.New("edison: invalid configuration")

// Cost is the hardware-independent execution cost of one inference.
type Cost struct {
	// DenseFLOPs counts floating-point operations inside dense kernels
	// (matrix multiplications), which run at the device's streaming
	// throughput.
	DenseFLOPs int64
	// ElementOps counts element-visits by element-wise tensor operations
	// (activations, erf/exp evaluations, masks, adds, scales). On a
	// graph-executor each such op re-traverses its tensor, paying
	// interpreter and memory overhead per element on top of the arithmetic.
	ElementOps int64
	// RandomDraws counts pseudo-random numbers generated (dropout masks).
	RandomDraws int64
}

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		DenseFLOPs:  c.DenseFLOPs + o.DenseFLOPs,
		ElementOps:  c.ElementOps + o.ElementOps,
		RandomDraws: c.RandomDraws + o.RandomDraws,
	}
}

// Scale returns the cost repeated k times (e.g. k MCDrop passes).
func (c Cost) Scale(k int64) Cost {
	return Cost{
		DenseFLOPs:  c.DenseFLOPs * k,
		ElementOps:  c.ElementOps * k,
		RandomDraws: c.RandomDraws * k,
	}
}

// Device models an Edison-class processor.
type Device struct {
	// Name labels the device in reports.
	Name string
	// DenseFLOPS is the effective dense-kernel throughput in FLOP/s.
	DenseFLOPS float64
	// ElementOpNanos is the per-element cost, in nanoseconds, of one
	// element-wise tensor-op visit (graph-executor dispatch + load +
	// compute + store on an in-order core).
	ElementOpNanos float64
	// RandomNanos is the per-draw cost of the dropout-mask PRNG.
	RandomNanos float64
	// ActivePowerWatts is the package power while computing.
	ActivePowerWatts float64
}

// NewEdison returns the default Intel Edison model. The constants are
// calibrated against the paper's Figures 2–5: a single forward pass of a
// 5-layer, 512-wide network lands near 12–16 ms, MCDrop-50 near 600–800 ms,
// and ApDeepSense near 2–3 (ReLU) or 7–9 (Tanh) equivalent passes.
func NewEdison() *Device {
	return &Device{
		Name:             "intel-edison",
		DenseFLOPS:       220e6, // effective scalar FLOP/s of the 500 MHz Atom on GEMV
		ElementOpNanos:   55,    // per-element graph-op overhead
		RandomNanos:      30,
		ActivePowerWatts: 0.85,
	}
}

// Validate checks the device constants.
func (d *Device) Validate() error {
	if d.DenseFLOPS <= 0 {
		return fmt.Errorf("dense throughput %v: %w", d.DenseFLOPS, ErrConfig)
	}
	if d.ElementOpNanos < 0 || d.RandomNanos < 0 {
		return fmt.Errorf("negative per-op latency: %w", ErrConfig)
	}
	if d.ActivePowerWatts <= 0 {
		return fmt.Errorf("active power %v: %w", d.ActivePowerWatts, ErrConfig)
	}
	return nil
}

// TimeMillis converts a cost into modeled execution milliseconds.
func (d *Device) TimeMillis(c Cost) float64 {
	seconds := float64(c.DenseFLOPs)/d.DenseFLOPS +
		float64(c.ElementOps)*d.ElementOpNanos*1e-9 +
		float64(c.RandomDraws)*d.RandomNanos*1e-9
	return seconds * 1e3
}

// EnergyMillijoules converts a cost into modeled millijoules: active power
// times modeled time.
func (d *Device) EnergyMillijoules(c Cost) float64 {
	return d.TimeMillis(c) * 1e-3 * d.ActivePowerWatts * 1e3
}
