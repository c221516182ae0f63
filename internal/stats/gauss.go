package stats

import "math"

//go:generate go run ../../tools/erfgen -o gauss_table.go

// Shared-exp Gaussian terms. Every moment kernel needs, at a standardized
// point z, the density φ(z) and the normal tail Φ(−|z|) (as erf(z/√2) for the
// PWL boundaries, as erfc for the rectifier). Both come from one
// e = exp(−z²/2):
//
//	φ(z)           = invSqrt2Pi · e
//	erfc(|z|/√2)   = e · R(|z|),   R(u) ≈ erfcx(u/√2) = exp(u²/2)·erfc(u/√2)
//	erf(z/√2)      = ±(1 − erfc(|z|/√2))
//
// R is a rational in u on the window |z| < TailZ, and (1/u)·T(1/u²) past it;
// tools/erfgen fits both against a 256-bit reference and derives the error
// constants in gauss_table.go. The exp is this package's own: z² is split
// exactly into hi + lo (Dekker), k = round(−hi/2·log₂e), the reduced
// argument r = (−hi/2 − k·ln2Hi) − k·ln2Lo − lo/2 feeds a degree-11
// polynomial, and 2^k is built from the exponent bits. Every step is a
// separately rounded IEEE multiply or add — no FMA — so the AVX2 and AVX-512
// kernels (gauss_amd64.s) reproduce GaussTermsAt bit for bit on the window.

const (
	// splitC is 2^27 + 1, Dekker's splitting constant.
	splitC = 134217729
	// expMagic is 1.5·2^52: adding it rounds to an integer and leaves that
	// integer in the low mantissa bits.
	expMagic = 6755399441055744
	log2e    = 1.4426950408889634
	// ln2Hi + ln2Lo = ln2; ln2Hi has 32 significant bits, so k·ln2Hi is
	// exact for |k| < 2^21 and −hi/2 − k·ln2Hi is exact too.
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
)

// GaussTermsAt returns e = exp(−z²/2) and q = erfc(|z|/√2) = 2Φ(−|z|): the
// one-element form of GaussTerms and the scalar reference of its vector
// kernels: on the window |z| < TailZ they
// match it bit for bit, and every other input — the rectifier's tail units,
// ±Inf and NaN — is evaluated here. Accuracy: ExpRelErr for e, ErfcRelErr
// for q while q is a normal float64.
func GaussTermsAt(z float64) (e, q float64) {
	u := math.Abs(z)
	if !(u < TailZ) {
		return gaussTail(u)
	}
	hi, lo := squareSplit(u)
	e = expHalf(hi, lo)
	num := winP[len(winP)-1]
	for i := len(winP) - 2; i >= 0; i-- {
		num = num*u + winP[i]
	}
	den := winQ[len(winQ)-1]
	for i := len(winQ) - 2; i >= 0; i-- {
		den = den*u + winQ[i]
	}
	return e, e * (num / den)
}

// gaussTail is GaussTermsAt for u = |z| ≥ TailZ, +Inf and NaN: the scaled
// erfc is T(v)/u in v = 1/u², and the exp takes the subnormal scaling the
// window never needs.
func gaussTail(u float64) (e, q float64) {
	if u != u {
		return u, u
	}
	hi, lo := squareSplit(u)
	if hi > 1491 { // exp(−745.5) rounds to 0; also catches +Inf
		return 0, 0
	}
	e = expHalf(hi, lo)
	v := 1 / (u * u)
	num := tailP[len(tailP)-1]
	for i := len(tailP) - 2; i >= 0; i-- {
		num = num*v + tailP[i]
	}
	den := tailQ[len(tailQ)-1]
	for i := len(tailQ) - 2; i >= 0; i-- {
		den = den*v + tailQ[i]
	}
	return e, e * (num / den / u)
}

// squareSplit returns hi = fl(u·u) and lo with hi + lo = u² exactly (Dekker's
// product, for |u| below 2^996).
func squareSplit(u float64) (hi, lo float64) {
	hi = u * u
	c := float64(splitC * u)
	uh := c - (c - u)
	ul := u - uh
	t := uh * ul
	lo = ((uh*uh - hi) + (t + t)) + ul*ul
	return hi, lo
}

// expHalf returns exp(−(hi+lo)/2) for 0 ≤ hi ≤ 1491.
func expHalf(hi, lo float64) float64 {
	a := -0.5 * hi
	t := a*log2e + expMagic
	k := t - expMagic
	r := (a - k*ln2Hi) - k*ln2Lo
	r = r - 0.5*lo
	p := expPoly[len(expPoly)-1]
	for i := len(expPoly) - 2; i >= 0; i-- {
		p = p*r + expPoly[i]
	}
	if k < -1021 {
		// 2^k is subnormal: scale in two steps so only the last rounds.
		return p * math.Float64frombits((math.Float64bits(t)+1023+64)<<52) * 0x1p-64
	}
	return p * math.Float64frombits((math.Float64bits(t)+1023)<<52)
}

// GaussTerms fills e[i], q[i] = GaussTermsAt(z[i]) for every i: the panel
// pass of the moment kernels. e and q must be at least len(z) long. On
// amd64 with AVX2 or AVX-512 the window lanes run in the vector kernel and
// only the lanes with |z| ≥ TailZ or NaN take the scalar reference.
func GaussTerms(z, e, q []float64) {
	n := gaussTermsVec(z, e, q)
	for i := n; i < len(z); i++ {
		e[i], q[i] = GaussTermsAt(z[i])
	}
	if n == 0 {
		return
	}
	for i, x := range z[:n] {
		if !(math.Abs(x) < TailZ) {
			e[i], q[i] = gaussTail(math.Abs(x))
		}
	}
}

// GaussTermsWindow is GaussTerms for a caller that only reads the lanes
// with |z| < TailZ: e[i], q[i] = GaussTermsAt(z[i]) there, and every other
// lane (past the window, ±Inf, NaN) is left unspecified instead of taking
// the scalar tail. The activation panel blends those lanes to the constant
// tail boundary, so it pays no scalar work for its dead knots.
func GaussTermsWindow(z, e, q []float64) {
	for i := gaussTermsVec(z, e, q); i < len(z); i++ {
		if math.Abs(z[i]) < TailZ {
			e[i], q[i] = GaussTermsAt(z[i])
		}
	}
}

// VectorKernels reports the GaussTerms vector paths in use (AVX2, AVX-512).
// The activation panel (core.ActKernel.MomentsPanel) runs its own AVX-512
// passes exactly when the AVX-512 path is in use, so this package's tests
// force both layers together.
func VectorKernels() (avx2, avx512 bool) { return useAVX2, useAVX512 }

// BoundaryFrom assembles the boundary terms at a window knot z from its
// shared-exp terms (e, q) = GaussTermsAt(z); BoundaryZ is exactly this for
// |z| < TailZ and NaN.
func BoundaryFrom(z, e, q float64) Boundary {
	phi := invSqrt2Pi * e
	// erf takes z's sign; as a bit operation, not a branch the panel's
	// random signs would mispredict.
	return Boundary{Erf: math.Copysign(1-q, z), Phi: phi, ZPhi: z * phi}
}
