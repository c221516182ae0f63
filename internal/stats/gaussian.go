// Package stats provides the probabilistic primitives behind ApDeepSense:
// univariate Gaussian densities, truncated-Gaussian partial moments
// (equations 23–25 of the paper), streaming moment accumulators, and
// histogram utilities used to reproduce Figure 1.
package stats

import "math"

// invSqrt2Pi is 1/sqrt(2π).
const invSqrt2Pi = 0.3989422804014327

// sqrt2 is sqrt(2).
const sqrt2 = 1.4142135623730951

// NormPDF returns the density of N(mu, sigma²) at x. sigma must be positive.
func NormPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return invSqrt2Pi / sigma * math.Exp(-0.5*z*z)
}

// NormCDF returns P(X <= x) for X ~ N(mu, sigma²). sigma must be positive.
// The smaller side is Φ(−|z|) = ½·erfc(|z|/√2) from the shared-exp terms, so
// it keeps its relative accuracy deep in the lower tail (ErfcRelErr), where
// ½(1 + erf) would cancel to 0 below z ≈ −8.3.
func NormCDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	_, q := GaussTermsAt(z)
	tail := 0.5 * q
	if z < 0 {
		return tail
	}
	return 1 - tail
}

// NormQuantile returns the q-th quantile of N(mu, sigma²) for q in (0, 1),
// using the Acklam rational approximation refined by one Halley step. The
// absolute error is below 1e-9 across (1e-300, 1-1e-16).
func NormQuantile(q, mu, sigma float64) float64 {
	return mu + sigma*stdNormQuantile(q)
}

// stdNormQuantile computes the standard normal inverse CDF.
func stdNormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's algorithm.
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// GaussianNLL returns the negative log-likelihood of observation y under
// N(mu, variance): 0.5·log(2π·variance) + (y−mu)²/(2·variance).
// variance must be positive; callers apply their own variance floor.
func GaussianNLL(y, mu, variance float64) float64 {
	return 0.5*math.Log(2*math.Pi*variance) + (y-mu)*(y-mu)/(2*variance)
}

// PartialMoments holds the three truncated-Gaussian quantities the paper
// names D_p, M_p, and V_p for one piece of a piece-wise linear activation.
//
// For Y ~ N(mu, sigma²) restricted to the interval [lo, hi]:
//
//	D = ∫ N(y; mu, sigma²) dy                  (probability mass, eq. 23)
//	M = ∫ (y − mu)   · N(y; mu, sigma²) dy     (first central partial moment, eq. 24)
//	V = ∫ (y − mu)²  · N(y; mu, sigma²) dy     (second central partial moment, eq. 25)
type PartialMoments struct {
	D, M, V float64
}

// TruncatedMoments computes the partial moments of N(mu, sigma²) over
// [lo, hi]. Infinite bounds are allowed; bounds standardized past TailZ
// contribute the constant tail boundary (see BoundaryZ), so pieces far in the
// tails carry exact zeros. sigma must be positive, and lo <= hi.
func TruncatedMoments(lo, hi, mu, sigma float64) PartialMoments {
	return MomentsBetween(BoundaryZ((lo-mu)/sigma), BoundaryZ((hi-mu)/sigma), sigma)
}

// Boundary holds the transcendental terms of the truncated-moment
// decomposition at one knot x, standardized as z = (x − mu)/sigma:
//
//	Erf  = erf(z/√2)    (CDF term of eq. 23)
//	Phi  = φ(z)         (standard normal density, eqs. 24–25)
//	ZPhi = z·φ(z)       (tail term of eq. 25; 0 at infinite knots)
//
// Adjacent pieces of a PWL activation share their interior knots, so a
// batched moment kernel evaluates one Boundary per knot (n+1 for n pieces)
// and assembles every piece's PartialMoments with MomentsBetween, instead of
// paying two erf/exp pairs per piece inside TruncatedMoments.
type Boundary struct {
	Erf, Phi, ZPhi float64
}

// TailZ is the shared tail cutoff of the truncated-moment terms: a knot
// standardized to |z| ≥ TailZ contributes the constant boundary of an
// infinite knot, {Erf ±1, φ 0, zφ 0}. It is at least 6√2, so erf(z/√2) is
// already ±1 to the last bit past it; the dropped density terms are bounded by
// TailPhiMax and TailZPhiMax. Every moment path (TruncatedMoments,
// BoundaryAt, and the batched kernels through BoundaryZ) truncates at the
// same place, which keeps them bit-identical to one another.
const TailZ = 9

// TailPhiMax bounds the density term φ(z) dropped at any |z| ≥ TailZ, and
// TailZPhiMax bounds the dropped tail term |z|·φ(z) (decreasing for |z| ≥ 1,
// so both maxima sit at TailZ). Both are rounded up from
// φ(9) = 1.0279773571668917e-18.
const (
	TailPhiMax  = 1.028e-18
	TailZPhiMax = TailZ * TailPhiMax
)

// BoundaryZ computes the boundary terms at a knot already standardized to
// z = (x − mu)/sigma. For |z| ≥ TailZ (including ±Inf) it returns the
// constant tail boundary; NaN fails both comparisons and still reaches the
// shared-exp terms, so it propagates. Inside the window φ and erf come from
// one exp (BoundaryFrom), with the erf's absolute error at most ErfAbsErr and
// φ's relative error at most PhiRelErr.
func BoundaryZ(z float64) Boundary {
	if z >= TailZ {
		return Boundary{Erf: 1}
	}
	if z <= -TailZ {
		return Boundary{Erf: -1}
	}
	e, q := GaussTermsAt(z)
	return BoundaryFrom(z, e, q)
}

// BoundaryAt computes the boundary terms of N(mu, sigma²) at knot x. The
// standardization matches TruncatedMoments exactly, so moments assembled
// from Boundary values are bit-identical to the direct computation.
func BoundaryAt(x, mu, sigma float64) Boundary {
	return BoundaryZ((x - mu) / sigma)
}

// MomentsBetween assembles the partial moments of N(mu, sigma²) over one
// interval from its precomputed Boundary terms. It performs the same
// floating-point operations in the same order as TruncatedMoments, so
// MomentsBetween(BoundaryAt(lo, mu, sigma), BoundaryAt(hi, mu, sigma), sigma)
// equals TruncatedMoments(lo, hi, mu, sigma) bit for bit.
func MomentsBetween(lo, hi Boundary, sigma float64) PartialMoments {
	var pm PartialMoments
	pm.D = 0.5 * (hi.Erf - lo.Erf)
	pm.M = sigma * (lo.Phi - hi.Phi)
	pm.V = sigma * sigma * (pm.D + lo.ZPhi - hi.ZPhi)
	if pm.V < 0 {
		// Guard against catastrophic cancellation on very thin slices.
		pm.V = 0
	}
	if pm.D < 0 {
		pm.D = 0
	}
	return pm
}
