package oracle

import (
	"fmt"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
)

// Budget is a sound, a-priori bound on how far the PWL-based moment
// propagation may drift from the exact-activation reference (ForwardTrue) at
// the network output, derived only from the measured per-layer sup-norm fit
// errors and the network's weights — never from running either pass.
//
//	|mean_pwl − mean_true|  ≤ Mean   (per output unit)
//	|var_pwl  − var_true|   ≤ Var
//
// It is the tolerance contract of the tanh/sigmoid differential tests: ReLU
// is exactly PWL so its budget is identically zero and the tight quadrature
// tolerance applies instead.
type Budget struct {
	Mean, Var float64
}

// Per-activation constants of the budget recursion: L is the Lipschitz
// constant of the exact activation, W bounds |f(x) − E[f(X)]| (the range
// width for bounded activations), and both enter the global first-order
// sensitivities of the Gaussian moment maps:
//
//	|∂E[f]/∂μ| ≤ L          |∂E[f]/∂σ| ≤ L·√(2/π)
//	|∂Var[f]/∂μ| = 2|Cov(f'(X), f(X))| ≤ 2·L·W
//	|∂Var[f]/∂σ| = 2|E[(f−m)·f'(X)·Z]| ≤ 2·L·W·√(2/π)
//
// and the direct PWL substitution errors at fixed (μ, σ):
//
//	|E[g] − E[f]| ≤ ε,   |Var[g] − Var[f]| ≤ 4ε(W + ε)   for sup|g−f| ≤ ε
//
// (the variance bound from (f−m+δ)² expansion with |δ| ≤ 2ε).
type actBounds struct {
	L, W float64
}

// ErrorBudget propagates the measured PWL sup-norm errors through the
// network layer by layer. Supported shapes: hidden activations tanh or
// sigmoid (bounded range, which the variance sensitivities need) and a
// final layer with identity, tanh, or sigmoid activation. Networks with
// ReLU hidden layers don't need a budget — their PWL error is zero and the
// tight quadrature contract applies end to end.
//
// The recursion tracks (dMu, dVar), sup-norm bounds over units on the mean
// and variance drift. Through a dense layer with keep probability p
// (eqs. 9–10, all linear in the input moments):
//
//	dMu'  = p·A₁·dMu                      A₁ = max_j Σ_i |W_ij|
//	dVar' = A₂·(p·dVar + p(1−p)·(2·dMu + dMu²))   A₂ = max_j Σ_i W²_ij
//
// using |μ_i| ≤ 1 for post-tanh/sigmoid inputs (the first layer enters with
// dMu = dVar = 0, so its unbounded raw inputs never multiply an error).
// Through an activation with fit error ε, using |Δσ| ≤ √dVar (concavity of
// √ along the segment):
//
//	dMu'  = ε + L·dMu + L·√(2/π)·√dVar
//	dVar' = 4ε(W+ε) + 2LW·dMu + 2LW·√(2/π)·√dVar
func (r *Ref) ErrorBudget() (Budget, error) {
	layers := r.net.Layers()
	sqrt2OverPi := math.Sqrt(2 / math.Pi)
	var dMu, dVar float64
	for i, l := range layers {
		ab, last := actBoundsFor(l.Act), i == len(layers)-1
		if ab.W == 0 && !(last && l.Act == nn.ActIdentity) {
			return Budget{}, fmt.Errorf("oracle: error budget unsupported for %v at layer %d (bounded hidden activations only)", l.Act, i)
		}

		// Dense step. |μ̂² − μ²| ≤ dMu·(2 + dMu) with |μ| ≤ 1 bounded by the
		// previous (tanh/sigmoid) activation; vacuous at layer 0 where dMu=0.
		p := l.KeepProb
		a1, a2 := weightNorms(l)
		dMu = p * a1 * dMu
		dVar = a2 * (p*dVar + p*(1-p)*dMu*(2+dMu))

		// Activation step.
		if l.Act == nn.ActIdentity {
			continue // exact: E[X] = μ, Var[X] = σ², both pass through.
		}
		eps := r.supErr[i]
		dSig := math.Sqrt(dVar)
		newMu := eps + ab.L*dMu + ab.L*sqrt2OverPi*dSig
		newVar := 4*eps*(ab.W+eps) + 2*ab.L*ab.W*dMu + 2*ab.L*ab.W*sqrt2OverPi*dSig
		dMu, dVar = newMu, newVar
	}
	return Budget{Mean: dMu, Var: dVar}, nil
}

func actBoundsFor(a nn.Activation) actBounds {
	switch a {
	case nn.ActTanh:
		// f' = 1 − tanh² ≤ 1; |f − m| ≤ 2 (range [−1, 1]).
		return actBounds{L: 1, W: 2}
	case nn.ActSigmoid:
		// f' = s(1−s) ≤ 1/4; |f − m| ≤ 1 (range [0, 1]).
		return actBounds{L: 0.25, W: 1}
	default:
		return actBounds{}
	}
}

// weightNorms returns A₁ = max_j Σ_i |W_ij| (the ∞→∞ gain on mean drift for
// row-vector × matrix) and A₂ = max_j Σ_i W²_ij (the gain on variance drift
// through the squared-weight matmul of eq. 10).
func weightNorms(l *nn.Layer) (a1, a2 float64) {
	in, out := l.InDim(), l.OutDim()
	for j := 0; j < out; j++ {
		var s1, s2 float64
		for i := 0; i < in; i++ {
			w := l.W.Data[i*out+j]
			s1 += math.Abs(w)
			s2 += w * w
		}
		if s1 > a1 {
			a1 = s1
		}
		if s2 > a2 {
			a2 = s2
		}
	}
	return a1, a2
}

// TailBudget bounds, a priori, how far the shared tail cutoff of the fast
// moment kernels (stats.TailZ) moves the output moments of the continuous
// PWL activation f, for a Gaussian with σ ≤ scale and |f(x_t) − E[f]| ≤ width
// at every knot x_t. The cutoff leaves every erf term unchanged (it is
// already ±1 there) and drops the density terms φ_t and z_t·φ_t of knots at
// |z_t| ≥ TailZ. With Δk_t the slope change at knot t, the dropped terms
// telescope across the two pieces sharing the knot (continuity gives
// k_t·a_t − k_{t−1}·a_{t−1} = f(x_t)·Δk_t − σ·z_t·Δ(k²)_t for a_p = k_p·μ+c_p),
// so with δ = truncated − untruncated and mean the untruncated mean:
//
//	δmean = −σ·Σ_t φ_t·Δk_t
//	δvar  = Σ_t [σ²·z_t·φ_t·Δ(k²)_t − 2σ·φ_t·Δk_t·(f(x_t) − mean)] − δmean²
//
// and φ_t ≤ stats.TailPhiMax, |z_t|·φ_t ≤ stats.TailZPhiMax turn them into
// the returned bounds. Nothing is tuned: the only inputs are the slopes.
func TailBudget(f *piecewise.Func, scale, width float64) (mean, variance float64) {
	var dk, dk2 float64
	for i := 1; i < f.NumPieces(); i++ {
		lo, hi := f.Piece(i-1).K, f.Piece(i).K
		dk += math.Abs(hi - lo)
		dk2 += math.Abs(hi*hi - lo*lo)
	}
	mean = scale * stats.TailPhiMax * dk
	variance = scale*scale*stats.TailZPhiMax*dk2 + 2*width*mean + mean*mean
	return mean, variance
}

// ErfBudget bounds, a priori, how far the fast kernels' shared-exp boundary
// terms (stats.BoundaryZ: erf within stats.ErfAbsErr, φ within
// stats.PhiRelErr) move the output moments of the continuous PWL activation
// f from the exact-term moments, for a Gaussian with σ ≤ scale and
// |f(x_t) − E[f]| ≤ width at every knot. Only knots inside the window
// |z_t| < stats.TailZ carry computed terms. With Δk_t and Δ(k²)_t the slope
// changes at knot t, perturbing erf_t by δ and φ_t by δφ moves, to first
// order (continuity as in TailBudget; the variance is stationary in the
// mean, so only the boundary terms enter):
//
//	δmean = Σ_t σ·Δk_t·(½·δ·z_t + δφ)
//	δvar  = Σ_t ½·δ·[2(f(x_t) − mean)·σ·z_t·Δk_t − σ²(1 + z_t²)·Δ(k²)_t]
//	           + 2σ·δφ·Δk_t·(f(x_t) − mean) − σ²·(z_t·δφ − ρ_t)·Δ(k²)_t
//
// with ρ_t the rounding of z·φ. |z_t| < TailZ, φ ≤ 1/√(2π) and |z|φ ≤ φ(1)
// turn these into the returned bounds; the mean's erf part is the
// ½·ErfAbsErr·σ·TailZ·Σ|Δk| of the erf error. The exact rectifier forms
// depend on Φ and φ through the same terms, and past the window their
// erfc keeps relative accuracy (stats.ErfcRelErr), so the bound covers them
// too. Nothing is tuned: the inputs are the slopes and the derived stats
// constants.
func ErfBudget(f *piecewise.Func, scale, width float64) (mean, variance float64) {
	const (
		invSqrt2Pi = 0.3989422804014327
		zPhiMax    = 0.24197072451914337 // φ(1) = max |z|·φ(z)
		unit       = 0x1p-53
	)
	var dk, dk2 float64
	for i := 1; i < f.NumPieces(); i++ {
		lo, hi := f.Piece(i-1).K, f.Piece(i).K
		dk += math.Abs(hi - lo)
		dk2 += math.Abs(hi*hi - lo*lo)
	}
	eErf, ePhi := stats.ErfAbsErr, stats.PhiRelErr
	mean = scale * dk * (0.5*eErf*stats.TailZ + ePhi*invSqrt2Pi)
	variance = 0.5*eErf*(scale*scale*(1+stats.TailZ*stats.TailZ)*dk2+2*width*scale*stats.TailZ*dk) +
		2*scale*ePhi*invSqrt2Pi*width*dk + scale*scale*(ePhi+unit)*zPhiMax*dk2 + mean*mean
	return mean, variance
}
