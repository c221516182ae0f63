package core

import (
	"math"

	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
)

// SigmaFloor is the relative standard deviation below which an input is
// treated as a point mass, avoiding 0/0 in the truncated-moment integrals.
// Exported so the numerical oracle (internal/oracle) can replicate the exact
// same cutoff: the point-mass shortcut is part of the propagation's contract,
// and a reference implementation with a different floor would disagree with
// the fast paths near the threshold by more than rounding error.
const SigmaFloor = 1e-12

// ActivationMoments pushes a scalar Gaussian N(mu, variance) through the
// piece-wise linear function f and returns the mean and variance of the
// output, implementing the paper's equations (12)–(26).
//
// The computation works in input space: for piece p with y = k·x + c over
// (a_p, b_p), using the truncated partial moments D_p, M_p, V_p of
// N(mu, variance) over the piece (stats.TruncatedMoments, eqs. 23–25),
//
//	E_p[y]            = (k·mu + c)·D_p + k·M_p                      (eq. 18 / 21)
//	E_p[(y − μ_y)²]   = k²·V_p + 2·k·d·M_p + d²·D_p,  d = k·mu+c−μ_y (eq. 20 / 22)
//
// which is algebraically identical to the paper's output-space formulation
// but avoids special-casing the sign of k, and degrades gracefully to the
// k = 0 constant-piece equations. Two passes (mean, then centered variance)
// keep the variance numerically stable.
func ActivationMoments(mu, variance float64, f *piecewise.Func) (outMean, outVar float64) {
	sigma := math.Sqrt(variance)
	if sigma <= SigmaFloor*(1+math.Abs(mu)) {
		// Point mass: the PWL function maps it to another point mass.
		return f.Eval(mu), 0
	}

	// Stack-allocate the per-piece moments for the common piece counts.
	n := f.NumPieces()
	var pmArr [16]stats.PartialMoments
	pms := pmArr[:]
	if n > len(pmArr) {
		pms = make([]stats.PartialMoments, n)
	}
	for i := 0; i < n; i++ {
		p := f.Piece(i)
		pms[i] = stats.TruncatedMoments(p.A, p.B, mu, sigma)
	}

	for i := 0; i < n; i++ {
		p := f.Piece(i)
		outMean += (p.K*mu+p.C)*pms[i].D + p.K*pms[i].M
	}
	for i := 0; i < n; i++ {
		p := f.Piece(i)
		d := p.K*mu + p.C - outMean
		outVar += p.K*p.K*pms[i].V + 2*p.K*d*pms[i].M + d*d*pms[i].D
	}
	if outVar < 0 {
		outVar = 0
	}
	return outMean, outVar
}

// ReLUMoments computes the exact rectified-Gaussian moments for
// y = max(0, x), x ~ N(mu, variance). It is the closed-form special case of
// ActivationMoments with the two-piece ReLU and exists both as a fast path
// and as an independent cross-check used by the test suite:
//
//	E[y]   = mu·Φ(α) + sigma·φ(α),            α = mu/sigma
//	E[y²]  = (mu² + sigma²)·Φ(α) + mu·sigma·φ(α)
//	Var[y] = E[y²] − E[y]²
func ReLUMoments(mu, variance float64) (outMean, outVar float64) {
	sigma := math.Sqrt(variance)
	if sigma <= SigmaFloor*(1+math.Abs(mu)) {
		if mu > 0 {
			return mu, 0
		}
		return 0, 0
	}
	alpha := mu / sigma
	phi := stats.NormPDF(alpha, 0, 1)
	capPhi := stats.NormCDF(alpha, 0, 1)
	outMean = mu*capPhi + sigma*phi
	second := (mu*mu+sigma*sigma)*capPhi + mu*sigma*phi
	outVar = second - outMean*outMean
	if outVar < 0 {
		outVar = 0
	}
	return outMean, outVar
}
