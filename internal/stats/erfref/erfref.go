// Package erfref is the arbitrary-precision reference for the Gaussian
// transcendentals of internal/stats: exp, erfc and the scaled erfc
// erfcx(x) = exp(x²)·erfc(x), all in math/big at a caller-chosen precision.
// tools/erfgen fits the float64 approximations against it, and the stats and
// oracle tests measure the shipped code against it. Nothing on a serving path
// imports it.
package erfref

import (
	"math"
	"math/big"
	"sync"
)

// Prec is the working precision, in bits, the fitter and the accuracy tests
// use: far beyond float64, so reference rounding never shows in a measured
// error.
const Prec = 256

func newf(prec uint, x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }

// piCache holds π at piPrec bits, computed once; Pi rounds it down.
var (
	piOnce  sync.Once
	piCache *big.Float
)

const piPrec = 4096

// Pi returns π to prec bits (at most 4096).
func Pi(prec uint) *big.Float {
	if prec > piPrec {
		panic("erfref: Pi precision above 4096 bits")
	}
	piOnce.Do(func() { piCache = machinPi(piPrec) })
	return new(big.Float).SetPrec(prec).Set(piCache)
}

// machinPi returns π to prec bits (Machin: π = 16·atan(1/5) − 4·atan(1/239)).
func machinPi(prec uint) *big.Float {
	wp := prec + 32
	atanInv := func(n int64) *big.Float {
		// atan(1/n) = Σ (−1)^k / ((2k+1)·n^(2k+1))
		sum := newf(wp, 0)
		pow := new(big.Float).SetPrec(wp).Quo(newf(wp, 1), newf(wp, float64(n)))
		n2 := newf(wp, float64(n*n))
		eps := new(big.Float).SetPrec(wp).SetMantExp(newf(wp, 1), -int(wp))
		for k := int64(0); ; k++ {
			term := new(big.Float).SetPrec(wp).Quo(pow, newf(wp, float64(2*k+1)))
			if k%2 == 0 {
				sum.Add(sum, term)
			} else {
				sum.Sub(sum, term)
			}
			if term.Cmp(eps) < 0 {
				break
			}
			pow.Quo(pow, n2)
		}
		return sum
	}
	pi := new(big.Float).SetPrec(wp).Mul(newf(wp, 16), atanInv(5))
	pi.Sub(pi, new(big.Float).SetPrec(wp).Mul(newf(wp, 4), atanInv(239)))
	return pi.SetPrec(prec)
}

// Exp returns e^x to prec bits: x is halved s times to below 2^−8, the
// Taylor series runs there, and the result is squared back s times.
func Exp(x *big.Float, prec uint) *big.Float {
	wp := prec + 64
	r := new(big.Float).SetPrec(wp).Set(x)
	s := 0
	if e := r.MantExp(nil); e > -8 {
		s = e + 8
		r.SetMantExp(r, -s)
	}
	sum := newf(wp, 1)
	term := newf(wp, 1)
	eps := new(big.Float).SetPrec(wp).SetMantExp(newf(wp, 1), -int(wp))
	for k := 1; ; k++ {
		term.Mul(term, r)
		term.Quo(term, newf(wp, float64(k)))
		sum.Add(sum, term)
		if new(big.Float).Abs(term).Cmp(eps) < 0 {
			break
		}
	}
	for ; s > 0; s-- {
		sum.Mul(sum, sum)
	}
	return sum.SetPrec(prec)
}

// cfDepth is the continued-fraction depth Erfcx uses for x ≥ cfFrom. The
// truncation error falls with depth and with x; at x = 5, 400 terms already
// agree with 4000 to a relative 3e−112 (below 2^−370), and 800 to the last
// of 400 bits, so 600 terms leave it far below any precision used here.
const (
	cfFrom  = 5
	cfDepth = 600
)

// Erfcx returns the scaled complementary error function exp(x²)·erfc(x) for
// x ≥ 0 to prec bits. Below 5 it is exp(x²) − (2/√π)·Σ 2ⁿx^(2n+1)/(2n+1)!!,
// the positive-term erf series, at enough extra precision to absorb the
// cancellation (x²·log₂e bits); from 5 up it is the Laplace continued
// fraction 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …)))) divided by √π.
func Erfcx(x *big.Float, prec uint) *big.Float {
	xf, _ := x.Float64()
	if xf < 0 {
		panic("erfref: Erfcx needs x ≥ 0")
	}
	sqrtPi := new(big.Float).Sqrt(Pi(prec + 64))
	if xf >= cfFrom {
		wp := prec + 64
		xx := new(big.Float).SetPrec(wp).Set(x)
		t := new(big.Float).SetPrec(wp).Set(xx)
		for k := cfDepth; k >= 1; k-- {
			a := newf(wp, float64(k)/2)
			t.Quo(a, t)
			t.Add(t, xx)
		}
		t.Mul(t, sqrtPi)
		return t.Quo(newf(wp, 1), t).SetPrec(prec)
	}
	wp := prec + 64 + uint(2*xf*xf+8)
	xx := new(big.Float).SetPrec(wp).Set(x)
	x2 := new(big.Float).SetPrec(wp).Mul(xx, xx)
	twoX2 := new(big.Float).SetPrec(wp).Add(x2, x2)
	term := new(big.Float).SetPrec(wp).Set(xx)
	sum := new(big.Float).SetPrec(wp).Set(xx)
	eps := new(big.Float).SetPrec(wp).SetMantExp(newf(wp, 1), -int(wp))
	for n := 1; ; n++ {
		term.Mul(term, twoX2)
		term.Quo(term, newf(wp, float64(2*n+1)))
		sum.Add(sum, term)
		if term.Cmp(eps) < 0 && float64(n) > xf*xf {
			break
		}
	}
	sp := new(big.Float).SetPrec(wp).Sqrt(Pi(wp))
	sum.Mul(sum, newf(wp, 2))
	sum.Quo(sum, sp)
	r := Exp(x2, wp)
	return r.Sub(r, sum).SetPrec(prec)
}

// GaussTerms returns, for a float64 z, the exact pair the stats kernels
// approximate: e = exp(−z²/2) and q = erfc(|z|/√2) = e·erfcx(|z|/√2), with z²
// formed exactly.
func GaussTerms(z float64, prec uint) (e, q *big.Float) {
	wp := prec + 32
	u := newf(wp, math.Abs(z))
	a := new(big.Float).SetPrec(wp).Mul(u, u)
	a.Quo(a, newf(wp, -2))
	e = Exp(a, wp)
	x := new(big.Float).SetPrec(wp).Quo(u, new(big.Float).SetPrec(wp).Sqrt(newf(wp, 2)))
	q = new(big.Float).SetPrec(wp).Mul(e, Erfcx(x, wp))
	return e.SetPrec(prec), q.SetPrec(prec)
}

// RelErr returns |got − want|/|want| as a float64 (0 when both are zero).
func RelErr(got float64, want *big.Float) float64 {
	if want.Sign() == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := new(big.Float).SetPrec(want.Prec()).SetFloat64(got)
	d.Sub(d, want)
	d.Quo(d, want)
	f, _ := d.Float64()
	return math.Abs(f)
}

// AbsErr returns |got − want| as a float64.
func AbsErr(got float64, want *big.Float) float64 {
	d := new(big.Float).SetPrec(want.Prec()).SetFloat64(got)
	d.Sub(d, want)
	f, _ := d.Float64()
	return math.Abs(f)
}
