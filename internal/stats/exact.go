package stats

import "math"

// Exact rectified-Gaussian moments (Thompson & McCrory 2026, "Uncertainty
// propagation through trained multi-layer perceptrons: Exact analytical
// results"). For X ~ N(μ, σ²) the ReLU output relu(X) = max(0, X) has
// closed-form moments in terms of the standard normal CDF Φ and PDF φ at
// z = μ/σ:
//
//	E[relu(X)]   = μΦ(z) + σφ(z)
//	E[relu(X)²]  = (μ² + σ²)Φ(z) + μσφ(z)
//
// The naive variance E[relu²] − E[relu]² cancels catastrophically for z ≫ 0
// (both terms approach μ², so the σ²-scale answer is the difference of two
// μ²-scale numbers). Expanding in z and grouping removes every μ²-scale
// term:
//
//	Var[relu(X)]/σ² = Φ(z) + z²Φ(z)Φ(−z) + zφ(z)(Φ(−z) − Φ(z)) − φ(z)²
//
// Each summand is O(1), the limits are 1 (z → +∞) and 0 (z → −∞), and the
// only subtraction is the benign −φ² term, so the form is accurate at both
// tails. Φ(z) is computed through erfc — NOT ½(1 + erf(z/√2)), which
// loses all relative accuracy below z ≈ −8.3 (the erf form saturates at
// −1 and the sum cancels to the last ulp of 1, an absolute error of ~1e−16
// against a true value of ~7.6e−24 at z = −10). One erfc per unit gives the
// tail side, ½·erfc(|z|/√2) = Φ(−|z|), with relative accuracy; the bulk side
// is 1 minus it, which loses nothing because the bulk side is ≥ ½. The erfc
// and φ(z) share one exp(−z²/2) (GaussTermsAt): erfc is that exp times a
// scaled-erfc rational, so Φ(−|z|) keeps a relative error below ErfcRelErr
// (~15 digits) down to z ≈ −37, where it leaves the normal float64 range.
// The mean μΦ + σφ then cancels to an absolute error of order eps·φ(z)·σ —
// far inside the oracle's condEps·S budget.
//
// These are the activation-moment backend every ReLU and leaky-ReLU layer is
// propagated with (core.KernelFor picks it from the activation); the PWL
// closed form (PartialMoments over pieces) remains as the tanh/sigmoid path
// and as an independent cross-check.

// RectifiedMoments returns the exact mean and variance of relu(X) = max(0, X)
// for X ~ N(mu, sigma²). sigma must be positive; callers handle the σ → 0
// point mass (core.SigmaFloor) before dispatching here.
func RectifiedMoments(mu, sigma float64) (mean, variance float64) {
	return LeakyRectifiedMoments(mu, sigma, 0)
}

// rectifiedFrom returns E[relu(X)], Var[relu(X)]/σ² and Φ(z) at z =
// mu/sigma from the shared-exp terms (e, q) = GaussTermsAt(z): one erfc for
// both Φ(z) and Φ(−z).
func rectifiedFrom(mu, sigma, z, e, q float64) (mean, v, cdf float64) {
	tail := 0.5 * q // Φ(−|z|), tail-accurate
	// cdf, cdfC = 1−tail, tail for z ≥ 0 and swapped below, selected on
	// z's sign bit without a branch (at z = ±0 both orders hold ½, ½).
	bulk := 1 - tail
	neg := uint64(int64(math.Float64bits(z)) >> 63)
	cdf = math.Float64frombits(math.Float64bits(bulk)&^neg | math.Float64bits(tail)&neg)
	cdfC := math.Float64frombits(math.Float64bits(tail)&^neg | math.Float64bits(bulk)&neg)
	pdf := invSqrt2Pi * e // φ(z)
	mean = mu*cdf + sigma*pdf
	v = cdf + z*z*cdf*cdfC + z*pdf*(cdfC-cdf) - pdf*pdf
	if v < 0 {
		v = 0
	}
	return mean, v, cdf
}

// LeakyRectifiedMoments returns the exact mean and variance of the leaky
// rectifier f(X) = X for X > 0, αX otherwise, for X ~ N(mu, sigma²) and
// slope 0 ≤ alpha ≤ 1. Writing f(x) = αx + (1−α)·relu(x) and using Stein's
// identity Cov(X, relu(X)) = σ²Φ(z):
//
//	E[f]   = αμ + (1−α)·E[relu]
//	Var[f] = α²σ² + (1−α)²·Var[relu] + 2α(1−α)σ²Φ(z)
//
// Every variance term is nonnegative, so the leaky form inherits the
// tail stability of RectifiedMoments with no new cancellation. alpha = 0
// reduces bit-exactly to RectifiedMoments; alpha = 1 to the identity.
// sigma must be positive, as for RectifiedMoments.
func LeakyRectifiedMoments(mu, sigma, alpha float64) (mean, variance float64) {
	z := mu / sigma
	e, q := GaussTermsAt(z)
	return RectifiedMomentsFrom(mu, sigma, alpha, z, e, q)
}

// RectifiedMomentsFrom is the panel form of the rectifier moments: z =
// mu/sigma was standardized by the caller and (e, q) = GaussTermsAt(z) came
// from a GaussTerms pass. alpha = 0 returns RectifiedMoments(mu, sigma) and
// any other slope LeakyRectifiedMoments(mu, sigma, alpha), bit for bit.
func RectifiedMomentsFrom(mu, sigma, alpha, z, e, q float64) (mean, variance float64) {
	meanR, vR, cdf := rectifiedFrom(mu, sigma, z, e, q)
	if alpha == 0 {
		return meanR, sigma * sigma * vR
	}
	b := 1 - alpha
	mean = alpha*mu + b*meanR
	variance = sigma * sigma * (alpha*alpha + b*b*vR + 2*alpha*b*cdf)
	return mean, variance
}
