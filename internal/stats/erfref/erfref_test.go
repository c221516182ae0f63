package erfref

import (
	"math"
	"math/big"
	"testing"
)

// TestAgainstMath cross-checks the reference against the standard library,
// which is accurate to about an ulp at these points: π, exp, and erfc from
// both sides of the series/continued-fraction switch at x = 5. It guards
// the reference itself, which the fitter and the accuracy tests trust.
func TestAgainstMath(t *testing.T) {
	const tol = 4e-16
	if r := RelErr(math.Pi, Pi(Prec)); r > tol {
		t.Errorf("Pi: rel err %g vs math.Pi", r)
	}
	for _, x := range []float64{-700, -40.5, -1, -1e-9, 0, 0.3466, 1, 20} {
		want := math.Exp(x)
		if r := RelErr(want, Exp(new(big.Float).SetFloat64(x), Prec)); r > tol {
			t.Errorf("Exp(%v): math.Exp differs by %g relative", x, r)
		}
	}
	for _, x := range []float64{0, 0.25, 0.5, 1, 2, 3, 4.5, 4.999, 5, 5.001, 6, 10, 20, 26} {
		bx := new(big.Float).SetPrec(Prec).SetFloat64(x)
		x2 := new(big.Float).SetPrec(Prec).Mul(bx, bx)
		erfc := new(big.Float).Mul(Exp(x2.Neg(x2), Prec), Erfcx(bx, Prec))
		if r := RelErr(math.Erfc(x), erfc); r > tol {
			t.Errorf("erfc(%v): math.Erfc differs by %g relative", x, r)
		}
	}
}
