package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/stats/erfref"
)

// gaussGrid is the dense measurement grid of the shared-exp terms: the
// window 0 ≤ |z| < TailZ in steps of 1/512 with its endpoints and the last
// float64 below TailZ, then the tail TailZ ≤ |z| ≤ 37 in steps of 1/16.
func gaussGrid() (window, tail []float64) {
	for i := 0; i < TailZ*512; i++ {
		window = append(window, float64(i)/512+1.0/1024)
	}
	window = append(window, 0, 5e-324, 1e-300, 1e-8, math.Nextafter(TailZ, 0))
	for z := float64(TailZ); z <= 37; z += 1.0 / 16 {
		tail = append(tail, z)
	}
	tail = append(tail, 37)
	return window, tail
}

// TestGaussTermsAccuracy holds the shipped exp and erfc to the derived
// error constants against the 256-bit reference on the dense grid, both
// signs of z: e = exp(−z²/2) within ExpRelErr, φ within PhiRelErr and
// erfc(|z|/√2) = 2Φ(−|z|) within ErfcRelErr everywhere — the relative tail
// accuracy RectifiedMoments relies on down to z = −37 — and the boundary
// erf within ErfAbsErr on the window.
func TestGaussTermsAccuracy(t *testing.T) {
	window, tail := gaussGrid()
	var worstE, worstPhi, worstQ, worstErf float64
	check := func(z float64, inWindow bool) {
		e, q := GaussTermsAt(z)
		we, wq := erfref.GaussTerms(z, erfref.Prec)
		re, rq := erfref.RelErr(e, we), erfref.RelErr(q, wq)
		if re > ExpRelErr || rq > ErfcRelErr {
			t.Fatalf("z=%v: exp rel err %.3g (bound %g), erfc rel err %.3g (bound %g)", z, re, ExpRelErr, rq, ErfcRelErr)
		}
		worstE, worstQ = math.Max(worstE, re), math.Max(worstQ, rq)
		if !inWindow {
			return
		}
		b := BoundaryZ(z)
		wphi := new(big.Float).Quo(we, new(big.Float).Sqrt(new(big.Float).Mul(big.NewFloat(2).SetPrec(erfref.Prec), erfref.Pi(erfref.Prec))))
		werf := new(big.Float).Sub(big.NewFloat(1).SetPrec(erfref.Prec), wq)
		if z < 0 {
			werf.Neg(werf)
		}
		rphi, aerf := erfref.RelErr(b.Phi, wphi), erfref.AbsErr(b.Erf, werf)
		if rphi > PhiRelErr || aerf > ErfAbsErr {
			t.Fatalf("z=%v: φ rel err %.3g (bound %g), erf abs err %.3g (bound %g)", z, rphi, PhiRelErr, aerf, ErfAbsErr)
		}
		worstPhi, worstErf = math.Max(worstPhi, rphi), math.Max(worstErf, aerf)
	}
	for _, z := range window {
		check(z, true)
		check(-z, true)
	}
	for _, z := range tail {
		check(-z, false)
	}
	t.Logf("worst: exp %.3g (bound %g), φ %.3g (%g), erfc %.3g (%g), erf abs %.3g (%g)",
		worstE, ExpRelErr, worstPhi, PhiRelErr, worstQ, ErfcRelErr, worstErf, ErfAbsErr)

	// Past z ≈ 37.7 exp(−z²/2) is subnormal and takes the two-step scaling,
	// whose one rounding into the subnormal range costs at most one ulp of
	// it; beyond z ≈ 38.6 both terms are 0.
	for _, z := range []float64{37.8, 38, 38.4, 38.6, 39, 1e3} {
		e, q := GaussTermsAt(-z)
		we, _ := erfref.GaussTerms(z, erfref.Prec)
		if d := erfref.AbsErr(e, we); d > 5e-324 {
			t.Errorf("z=%v: subnormal exp %g off by %g", z, e, d)
		}
		if !(q >= 0 && q <= e) {
			t.Errorf("z=%v: erfc %g outside [0, exp %g]", z, q, e)
		}
	}
}

// TestGaussTermsVectorMatchesScalar pins every vector path of GaussTerms to
// the scalar reference bit for bit: ragged lengths against both vector
// widths, window values, tail values, ±Inf, NaN, subnormals and zeros.
func TestGaussTermsVectorMatchesScalar(t *testing.T) {
	saved2, saved512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = saved2, saved512 }()
	paths := []struct {
		name         string
		avx2, avx512 bool
	}{{"scalar", false, false}}
	if saved2 {
		paths = append(paths, struct {
			name         string
			avx2, avx512 bool
		}{"avx2", true, false})
	}
	if saved512 {
		paths = append(paths, struct {
			name         string
			avx2, avx512 bool
		}{"avx512", saved2, true})
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.NaN(), math.Inf(1), math.Inf(-1),
		TailZ, -TailZ, math.Nextafter(TailZ, 0), -math.Nextafter(TailZ, 0), 37, -40, 1e300}
	rng := rand.New(rand.NewSource(18))
	for _, p := range paths {
		useAVX2, useAVX512 = p.avx2, p.avx512
		for n := 0; n <= 67; n++ {
			z := make([]float64, n)
			for i := range z {
				switch rng.Intn(6) {
				case 0:
					z[i] = special[rng.Intn(len(special))]
				case 1:
					z[i] = rng.NormFloat64() * 20
				default:
					z[i] = (rng.Float64()*2 - 1) * TailZ
				}
			}
			e, q := make([]float64, n), make([]float64, n)
			GaussTerms(z, e, q)
			for i, x := range z {
				we, wq := GaussTermsAt(x)
				if !sameBits(e[i], we) || !sameBits(q[i], wq) {
					t.Fatalf("%s n=%d z[%d]=%v: (%v, %v), scalar reference (%v, %v)", p.name, n, i, x, e[i], q[i], we, wq)
				}
			}
		}
	}
}

// sameBits reports bit equality, except that any two NaNs match.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestNormCDFTailRelative checks NormCDF's lower tail to relative accuracy,
// where ½(1 + erf) returned 0 (z = −10: true 7.6e−24).
func TestNormCDFTailRelative(t *testing.T) {
	for _, z := range []float64{-10, -20} {
		_, wq := erfref.GaussTerms(z, erfref.Prec)
		want := new(big.Float).Mul(wq, big.NewFloat(0.5))
		for _, sigma := range []float64{1, 0.25} {
			got := NormCDF(z*sigma+3, 3, sigma)
			if r := erfref.RelErr(got, want); r > ErfcRelErr {
				w, _ := want.Float64()
				t.Errorf("NormCDF at z=%v (sigma %v) = %v, want %v (rel err %.3g > %g)", z, sigma, got, w, r, ErfcRelErr)
			}
		}
	}
}
