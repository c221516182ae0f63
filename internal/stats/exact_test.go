package stats

import (
	"math"
	"testing"
)

// quadRectified integrates the rectifier's moments numerically: composite
// Simpson over [0, μ+tail·σ] (the negative half contributes αx terms handled
// analytically below for leaky), plus the point mass of the clamped negative
// half. Independent of the closed forms under test — it goes through the
// density directly.
func quadRectified(mu, sigma, alpha float64, t *testing.T) (mean, variance float64) {
	t.Helper()
	const n = 200001 // odd
	integ := func(lo, hi float64, f func(float64) float64) float64 {
		if hi <= lo {
			return 0
		}
		h := (hi - lo) / float64(n-1)
		sum := f(lo) + f(hi)
		for i := 1; i < n-1; i++ {
			x := lo + float64(i)*h
			if i%2 == 1 {
				sum += 4 * f(x)
			} else {
				sum += 2 * f(x)
			}
		}
		return sum * h / 3
	}
	dens := func(x float64) float64 {
		z := (x - mu) / sigma
		return invSqrt2Pi / sigma * math.Exp(-0.5*z*z)
	}
	leaky := func(x float64) float64 {
		if x > 0 {
			return x
		}
		return alpha * x
	}
	// Split at the kink: Simpson across x = 0 converges too slowly.
	lo, hi := mu-12*sigma, mu+12*sigma
	split := math.Min(math.Max(0, lo), hi)
	m1 := integ(lo, split, func(x float64) float64 { return leaky(x) * dens(x) }) +
		integ(split, hi, func(x float64) float64 { return leaky(x) * dens(x) })
	m2 := integ(lo, split, func(x float64) float64 { return leaky(x) * leaky(x) * dens(x) }) +
		integ(split, hi, func(x float64) float64 { return leaky(x) * leaky(x) * dens(x) })
	return m1, m2 - m1*m1
}

func TestRectifiedMomentsVsQuadrature(t *testing.T) {
	// Benign z range where both quadrature and the naive subtraction are
	// trustworthy; tails are covered by the invariant and limit tests.
	for _, mu := range []float64{-4, -1.5, -0.1, 0, 0.1, 1.5, 4} {
		for _, sigma := range []float64{0.3, 1, 7.5} {
			wantM, wantV := quadRectified(mu, sigma, 0, t)
			gotM, gotV := RectifiedMoments(mu, sigma)
			if relErr(gotM, wantM) > 1e-9 {
				t.Errorf("mean(mu=%v,sigma=%v) = %v, quadrature %v", mu, sigma, gotM, wantM)
			}
			if relErr(gotV, wantV) > 1e-8 {
				t.Errorf("var(mu=%v,sigma=%v) = %v, quadrature %v", mu, sigma, gotV, wantV)
			}
		}
	}
}

func TestLeakyRectifiedMomentsVsQuadrature(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.2, 0.9} {
		for _, mu := range []float64{-3, -0.5, 0, 2} {
			for _, sigma := range []float64{0.5, 2} {
				wantM, wantV := quadRectified(mu, sigma, alpha, t)
				gotM, gotV := LeakyRectifiedMoments(mu, sigma, alpha)
				if relErr(gotM, wantM) > 1e-8 {
					t.Errorf("mean(mu=%v,sigma=%v,a=%v) = %v, quadrature %v", mu, sigma, alpha, gotM, wantM)
				}
				if relErr(gotV, wantV) > 1e-7 {
					t.Errorf("var(mu=%v,sigma=%v,a=%v) = %v, quadrature %v", mu, sigma, alpha, gotV, wantV)
				}
			}
		}
	}
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if s := math.Abs(want); s > 1 {
		return d / s
	}
	return d
}

// TestRectifiedMomentsInvariants drives the closed forms across a hostile
// μ/σ grid — |z| up to 1e15 in both directions — and checks the exact
// distributional invariants that the naive E[y²]−E[y]² form violates at the
// tails: 0 ≤ Var ≤ σ², max(0, μ) ≤ mean ≤ max(0, μ) + σφ(0), and everything
// finite.
func TestRectifiedMomentsInvariants(t *testing.T) {
	mus := []float64{0, 1e-300, -1e-300, 1e-9, -1e-9, 1, -1, 42.5, -42.5, 1e6, -1e6, 1e12, -1e12}
	sigmas := []float64{1e-12, 1e-6, 0.37, 1, 2e3, 1e9}
	for _, mu := range mus {
		for _, sigma := range sigmas {
			m, v := RectifiedMoments(mu, sigma)
			if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite moments at mu=%v sigma=%v: %v, %v", mu, sigma, m, v)
			}
			if v < 0 || v > sigma*sigma*(1+1e-12) {
				t.Errorf("var(mu=%v,sigma=%v) = %v outside [0, σ²]", mu, sigma, v)
			}
			floor := math.Max(0, mu)
			ceil := floor + sigma*invSqrt2Pi
			if m < floor-1e-12*(1+math.Abs(floor)) || m > ceil*(1+1e-12) {
				t.Errorf("mean(mu=%v,sigma=%v) = %v outside [%v, %v]", mu, sigma, m, floor, ceil)
			}
		}
	}
}

// TestRectifiedMomentsTailLimits pins the saturation behaviour: deep in the
// positive tail the rectifier is the identity (mean → μ, var → σ², at
// relative eps), deep in the negative tail it is the zero point mass — and
// the mean keeps RELATIVE accuracy there, which is the whole reason Φ is
// computed via erfc. At z = −10 the true mean is σφ(10)/10·(1−1/100+…)
// ≈ 7.63e−24·σ; the erf-based Φ would return ~1e−17-scale garbage.
func TestRectifiedMomentsTailLimits(t *testing.T) {
	// Positive saturation.
	for _, z := range []float64{9, 15, 40, 1e8} {
		m, v := RectifiedMoments(z, 1) // sigma = 1, mu = z
		if relErr(m, z) > 1e-15 {
			t.Errorf("positive tail mean(z=%v) = %v, want %v", z, m, z)
		}
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("positive tail var(z=%v) = %v, want 1", z, v)
		}
	}
	// Negative tail: compare against the asymptotic series
	// E[relu] = φ(z)/z²·(1 − 3/z² + O(z⁻⁴)) for z → −∞.
	for _, z := range []float64{-9, -12, -20} {
		m, _ := RectifiedMoments(z, 1)
		z2 := z * z
		want := invSqrt2Pi * math.Exp(-0.5*z2) / z2 * (1 - 3/z2 + 15/(z2*z2) - 105/(z2*z2*z2))
		// The series is asymptotic; its own truncation error is ~945/z⁸.
		tol := 2000 / (z2 * z2 * z2 * z2)
		if m <= 0 {
			t.Fatalf("negative tail mean(z=%v) = %v, want positive", z, m)
		}
		if d := math.Abs(m-want) / want; d > tol {
			t.Errorf("negative tail mean(z=%v) = %v, asymptotic %v (rel %v)", z, m, want, d)
		}
	}
}

// TestLeakyRectifiedMomentsEndpoints pins the algebraic endpoints: α = 0 is
// bit-identical to RectifiedMoments (the kernel dispatch relies on either
// being safe to call for plain ReLU) and α = 1 is bit-identical to the
// identity's moments.
func TestLeakyRectifiedMomentsEndpoints(t *testing.T) {
	for _, mu := range []float64{-7, -0.3, 0, 0.3, 7, 1e6, -1e6} {
		for _, sigma := range []float64{1e-6, 1, 1e3} {
			wm, wv := RectifiedMoments(mu, sigma)
			gm, gv := LeakyRectifiedMoments(mu, sigma, 0)
			if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Errorf("alpha=0 (mu=%v,sigma=%v): (%v,%v) != RectifiedMoments (%v,%v)", mu, sigma, gm, gv, wm, wv)
			}
			im, iv := LeakyRectifiedMoments(mu, sigma, 1)
			if math.Float64bits(im) != math.Float64bits(mu) || math.Float64bits(iv) != math.Float64bits(sigma*sigma) {
				t.Errorf("alpha=1 (mu=%v,sigma=%v): (%v,%v), want identity (%v,%v)", mu, sigma, im, iv, mu, sigma*sigma)
			}
		}
	}
}
