package oracle_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/proptest"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/stats/erfref"
)

// exactBoundary is stats.BoundaryZ with exact terms: the same tail cutoff,
// and inside the window erf(z/√2), φ(z) and z·φ(z) to 256 bits at the
// float64 z.
func exactBoundary(z float64) bigBoundary {
	if z >= stats.TailZ {
		return bigBoundary{bigF(1), bigF(0), bigF(0)}
	}
	if z <= -stats.TailZ {
		return bigBoundary{bigF(-1), bigF(0), bigF(0)}
	}
	e, q := erfref.GaussTerms(z, bigPrec)
	erf := new(big.Float).Sub(bigF(1), q)
	if z < 0 {
		erf.Neg(erf)
	}
	twoPi := new(big.Float).Mul(bigF(2), erfref.Pi(bigPrec))
	phi := new(big.Float).Quo(e, twoPi.Sqrt(twoPi))
	return bigBoundary{erf, phi, new(big.Float).Mul(bigF(z), phi)}
}

// TestErfBudgetCoversBoundaryError measures, on the proptest corpus, how far
// the shipped shared-exp boundary terms move each activation's moments from
// the same assembly on exact terms, and requires every gap to sit within
// ErfBudget. Both assemblies run in 256-bit arithmetic with the same tail
// cutoff, so the gap is the erf and φ error alone. The budget is evaluated
// at the unit's own σ as scale, tighter than the max over units the
// references inject. Rectifier layers are checked through their PWL form.
func TestErfBudgetCoversBoundaryError(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	var units int
	worst := 0.0 // largest gap/budget ratio seen
	check := func(f *piecewise.Func, act nn.Activation, mu, variance float64) {
		sigma := math.Sqrt(variance)
		if sigma <= core.SigmaFloor*(1+math.Abs(mu)) || math.IsNaN(sigma) || math.IsInf(mu, 0) {
			return
		}
		knots := f.Knots()
		shipped := make([]stats.Boundary, len(knots))
		exact := make([]bigBoundary, len(knots))
		live := false
		for i, x := range knots {
			z := (x - mu) / sigma
			shipped[i], exact[i] = stats.BoundaryZ(z), exactBoundary(z)
			live = live || math.Abs(z) < stats.TailZ
		}
		if !live {
			return
		}
		units++
		sm, sv := bigAssembly(f, toBig(shipped), mu, sigma)
		em, ev := bigAssembly(f, exact, mu, sigma)
		width := f.MaxAbsSlope() * (math.Abs(mu) + 12*sigma)
		switch act {
		case nn.ActTanh:
			width = 2
		case nn.ActSigmoid:
			width = 1
		}
		bm, bv := oracle.ErfBudget(f, sigma, width)
		for _, c := range []struct {
			name           string
			shipped, exact *big.Float
			budget         float64
		}{{"mean", sm, em, bm}, {"var", sv, ev, bv}} {
			gap, _ := new(big.Float).Abs(new(big.Float).Sub(c.shipped, c.exact)).Float64()
			if gap > c.budget {
				t.Fatalf("%s mu=%v sigma=%v: the shared-exp terms move the %s by %g > ErfBudget %g",
					f.Name(), mu, sigma, c.name, gap, c.budget)
			}
			if r := gap / c.budget; r > worst {
				worst = r
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		net := proptest.GenNetwork(rng)
		g := core.Deterministic(proptest.GenInput(rng, net.InputDim()))
		if trial%2 == 1 {
			g = proptest.GenGaussian(rng, net.InputDim())
		}
		for _, l := range net.Layers() {
			var err error
			if g, err = core.DenseMoments(g, l, l.W.Square()); err != nil {
				t.Fatal(err)
			}
			f, ak, err := core.KernelFor(l.Act, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bounds := make([]stats.Boundary, ak.NumBounds())
			pms := make([]stats.PartialMoments, ak.NumBounds())
			for j := range g.Mean {
				v := math.Max(g.Var[j], 0)
				check(f, l.Act, g.Mean[j], v)
				g.Mean[j], g.Var[j] = ak.Moments(g.Mean[j], v, bounds, pms)
			}
		}
	}
	if units < 500 {
		t.Fatalf("only %d units had a knot inside the window; the corpus no longer exercises the terms", units)
	}
	t.Logf("%d units checked; largest gap/budget ratio %.3g", units, worst)
}
