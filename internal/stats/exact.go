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
// is 1 minus it, which loses nothing because the bulk side is ≥ ½. (For
// |z|/√2 ≥ 1.25 Go's erfc(−x) is 2 − erfc(x) rounded, so this matches the
// two-call form ½·erfc(∓z/√2) bit for bit there and is within a few ulps
// nearer 0.) The mean μΦ + σφ then cancels to an absolute error of order
// eps·φ(z)·σ — far inside the oracle's condEps·S budget.
//
// These are the activation-moment backend every ReLU and leaky-ReLU layer is
// propagated with (core.KernelFor picks it from the activation); the PWL
// closed form (PartialMoments over pieces) remains as the tanh/sigmoid path
// and as an independent cross-check.

// RectifiedMoments returns the exact mean and variance of relu(X) = max(0, X)
// for X ~ N(mu, sigma²). sigma must be positive; callers handle the σ → 0
// point mass (core.SigmaFloor) before dispatching here.
func RectifiedMoments(mu, sigma float64) (mean, variance float64) {
	mean, v, _ := rectified(mu, sigma)
	return mean, sigma * sigma * v
}

// rectified returns E[relu(X)], Var[relu(X)]/σ² and Φ(z) at z = mu/sigma,
// with one erfc for both Φ(z) and Φ(−z).
func rectified(mu, sigma float64) (mean, v, cdf float64) {
	z := mu / sigma
	tail := 0.5 * math.Erfc(math.Abs(z)/sqrt2) // Φ(−|z|), tail-accurate
	cdf, cdfC := 1-tail, tail
	if z < 0 {
		cdf, cdfC = tail, 1-tail
	}
	pdf := stdPhi(z) // φ(z)
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
	meanR, vR, cdf := rectified(mu, sigma)
	b := 1 - alpha
	mean = alpha*mu + b*meanR
	variance = sigma * sigma * (alpha*alpha + b*b*vR + 2*alpha*b*cdf)
	return mean, variance
}
