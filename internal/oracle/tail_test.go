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
)

// untruncatedBoundary is the boundary without the tail cutoff: the kernels'
// own shared-exp erf and density terms at every finite z, so inside the
// window it equals stats.BoundaryZ bit for bit and only the cutoff differs.
func untruncatedBoundary(z float64) stats.Boundary {
	if math.IsInf(z, 0) {
		return stats.Boundary{Erf: math.Copysign(1, z)}
	}
	e, q := stats.GaussTermsAt(z)
	return stats.BoundaryFrom(z, e, q)
}

// bigBoundary is a Boundary held in 256-bit arithmetic.
type bigBoundary struct{ erf, phi, zphi *big.Float }

const bigPrec = 256

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

// toBig converts float64 boundary terms exactly.
func toBig(bs []stats.Boundary) []bigBoundary {
	out := make([]bigBoundary, len(bs))
	for i, b := range bs {
		out[i] = bigBoundary{bigF(b.Erf), bigF(b.Phi), bigF(b.ZPhi)}
	}
	return out
}

// bigAssembly assembles the PWL moments of N(mu, sigma²) from the given
// per-knot boundary terms in 256-bit arithmetic, with the same clamps as
// stats.MomentsBetween and ActKernel.Moments, so two boundary sets can be
// compared with no float64 rounding in between.
func bigAssembly(f *piecewise.Func, bs []bigBoundary, mu, sigma float64) (mean, variance *big.Float) {
	const prec = bigPrec
	nf := bigF
	zero := nf(0)
	clamp := func(x *big.Float) *big.Float {
		if x.Sign() < 0 {
			return zero
		}
		return x
	}
	n := f.NumPieces()
	bSigma := nf(sigma)
	bSigma2 := new(big.Float).Mul(bSigma, bSigma)
	a := make([]*big.Float, n) // k·mu + c
	D, M, V := make([]*big.Float, n), make([]*big.Float, n), make([]*big.Float, n)
	mean = nf(0)
	for i := 0; i < n; i++ {
		p := f.Piece(i)
		lo, hi := bs[i], bs[i+1]
		a[i] = new(big.Float).Add(new(big.Float).Mul(nf(p.K), nf(mu)), nf(p.C))
		d := new(big.Float).Sub(hi.erf, lo.erf)
		D[i] = clamp(d.Mul(d, nf(0.5)))
		M[i] = new(big.Float).Mul(bSigma, new(big.Float).Sub(lo.phi, hi.phi))
		v := new(big.Float).Add(D[i], lo.zphi)
		v.Sub(v, hi.zphi)
		V[i] = clamp(v.Mul(v, bSigma2))
		mean.Add(mean, new(big.Float).Mul(a[i], D[i]))
		mean.Add(mean, new(big.Float).Mul(nf(p.K), M[i]))
	}
	variance = nf(0)
	for i := 0; i < n; i++ {
		k := nf(f.Piece(i).K)
		d := new(big.Float).Sub(a[i], mean)
		variance.Add(variance, new(big.Float).Mul(new(big.Float).Mul(k, k), V[i]))
		variance.Add(variance, new(big.Float).Mul(new(big.Float).Mul(nf(2), k), new(big.Float).Mul(d, M[i])))
		variance.Add(variance, new(big.Float).Mul(new(big.Float).Mul(d, d), D[i]))
	}
	return mean, clamp(variance)
}

// TestTailBudgetCoversTruncation measures, on the proptest corpus, how far
// the shared tail cutoff moves each activation's moments, and requires every
// gap to sit within TailBudget. Both assemblies run in 256-bit arithmetic
// from the same float64 boundary terms — one cut at stats.TailZ as the fast
// kernels do, one keeping every density term — so the gap is the
// truncation alone, with no float rounding in it. The budget is evaluated at
// the unit's own σ as scale, tighter than the max over units the references
// inject.
func TestTailBudgetCoversTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	var units, truncated int
	worst := 0.0 // largest gap/budget ratio seen
	check := func(f *piecewise.Func, act nn.Activation, mu, variance float64) {
		sigma := math.Sqrt(variance)
		if sigma <= core.SigmaFloor*(1+math.Abs(mu)) || math.IsNaN(sigma) || math.IsInf(mu, 0) {
			return
		}
		knots := f.Knots()
		cut := make([]stats.Boundary, len(knots))
		full := make([]stats.Boundary, len(knots))
		dropped := false
		for i, x := range knots {
			z := (x - mu) / sigma
			cut[i], full[i] = stats.BoundaryZ(z), untruncatedBoundary(z)
			dropped = dropped || cut[i] != full[i]
		}
		units++
		if !dropped {
			return
		}
		truncated++
		cm, cv := bigAssembly(f, toBig(cut), mu, sigma)
		fm, fv := bigAssembly(f, toBig(full), mu, sigma)
		width := f.MaxAbsSlope() * (math.Abs(mu) + 12*sigma)
		switch act {
		case nn.ActTanh:
			width = 2
		case nn.ActSigmoid:
			width = 1
		}
		bm, bv := oracle.TailBudget(f, sigma, width)
		for _, c := range []struct {
			name      string
			cut, full *big.Float
			budget    float64
		}{{"mean", cm, fm, bm}, {"var", cv, fv, bv}} {
			gap, _ := new(big.Float).Abs(new(big.Float).Sub(c.cut, c.full)).Float64()
			if gap > c.budget {
				t.Fatalf("%s mu=%v sigma=%v: truncation moves the %s by %g > TailBudget %g",
					f.Name(), mu, sigma, c.name, gap, c.budget)
			}
			if r := gap / c.budget; r > worst {
				worst = r
			}
		}
	}
	for trial := 0; trial < 150; trial++ {
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
	if truncated < 1000 {
		t.Fatalf("only %d of %d units had a knot past the cutoff; the corpus no longer exercises it", truncated, units)
	}
	t.Logf("%d of %d units truncated; largest gap/budget ratio %.3g", truncated, units, worst)
}
