package stats_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
)

// The activation panel (core.ActKernel.MomentsPanel) lives in internal/core,
// but its vector pass is this package's GaussTerms, whose kernel selection
// only this package's tests can force; so the panel's bit-identity suite
// runs here.

// panelKernels are the kernels the panel must reproduce: the served ones
// (core.KernelFor: tanh, sigmoid, the exact ReLU and leaky-ReLU backends,
// identity) plus the PWL forms of the two rectifiers.
func panelKernels(tb testing.TB) []*core.ActKernel {
	tb.Helper()
	var ks []*core.ActKernel
	for _, act := range []nn.Activation{nn.ActTanh, nn.ActSigmoid, nn.ActReLU, nn.ActLeakyReLU, nn.ActIdentity} {
		_, ak, err := core.KernelFor(act, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		ks = append(ks, ak)
	}
	return append(ks, core.NewActKernel(piecewise.ReLU()), core.NewActKernel(piecewise.LeakyReLU(nn.LeakyAlpha)))
}

// vectorPaths lists the GaussTerms kernel selections this CPU can run: the
// scalar reference, and each vector width it has.
func vectorPaths() [][2]bool {
	avx2, avx512 := stats.VectorKernels()
	paths := [][2]bool{{false, false}}
	if avx2 {
		paths = append(paths, [2]bool{true, false})
	}
	if avx512 {
		paths = append(paths, [2]bool{avx2, true})
	}
	return paths
}

// panelInputs draws n pre-activation moments: mostly finite Gaussians
// around the knots and the origin at several scales, with NaN, ±Inf,
// subnormal and sub-SigmaFloor variances and means mixed in.
func panelInputs(rng *rand.Rand, n int) (mu, va []float64) {
	specialMu := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 0, math.Copysign(0, -1), 1e300, -1e200}
	specialVa := []float64{math.NaN(), math.Inf(1), 0, 5e-324, 1e-310, 0.25 * core.SigmaFloor * core.SigmaFloor, 1e300}
	mu, va = make([]float64, n), make([]float64, n)
	for i := range mu {
		sigma := math.Pow(10, rng.Float64()*4-3)
		mu[i] = rng.NormFloat64() * 3
		if rng.Intn(4) == 0 {
			// On a tail edge of a knot of some tanh fit: z = ±TailZ ± tiny.
			mu[i] = 0.5*float64(rng.Intn(7)-3) + (stats.TailZ+rng.NormFloat64()*1e-9)*sigma*float64(2*rng.Intn(2)-1)
		}
		va[i] = sigma * sigma
		switch rng.Intn(12) {
		case 0:
			mu[i] = specialMu[rng.Intn(len(specialMu))]
		case 1:
			va[i] = specialVa[rng.Intn(len(specialVa))]
		}
	}
	return mu, va
}

// requirePanelMatches runs the panel over (mu, va) and checks every output
// against per-element Moments bit for bit (any two NaNs match).
func requirePanelMatches(tb testing.TB, ak *core.ActKernel, mu, va []float64, sc *core.ActScratch) {
	tb.Helper()
	gotM, gotV := append([]float64(nil), mu...), append([]float64(nil), va...)
	ak.MomentsPanel(gotM, gotV, sc)
	bounds := make([]stats.Boundary, ak.NumBounds())
	pms := make([]stats.PartialMoments, ak.NumBounds())
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i := range mu {
		wm, wv := ak.Moments(mu[i], va[i], bounds, pms)
		if !same(gotM[i], wm) || !same(gotV[i], wv) {
			tb.Fatalf("element %d of %d (mu=%v var=%v): panel (%v, %v) != Moments (%v, %v)",
				i, len(mu), mu[i], va[i], gotM[i], gotV[i], wm, wv)
		}
	}
}

// TestActPanelMatchesMoments is the deterministic table: every kernel, every
// row count 1–67 (ragged against vector widths 4 and 8) and two counts
// spanning several 256-element tiles, every kernel selection this CPU can
// run. One scratch serves every count, so it also grows under reuse.
func TestActPanelMatchesMoments(t *testing.T) {
	kernels := panelKernels(t)
	for _, p := range vectorPaths() {
		restore := stats.SetVectorKernels(p[0], p[1])
		rng := rand.New(rand.NewSource(18))
		for _, ak := range kernels {
			var sc core.ActScratch
			for n := 1; n <= 67; n++ {
				mu, va := panelInputs(rng, n)
				requirePanelMatches(t, ak, mu, va, &sc)
			}
			for _, n := range []int{300, 777} {
				mu, va := panelInputs(rng, n)
				requirePanelMatches(t, ak, mu, va, &sc)
			}
		}
		restore()
	}
}

// FuzzActPanel is TestActPanelMatchesMoments on fuzzed panels: the seed
// draws the moments, n the row count, k the kernel, and vec the kernel
// selection (0 scalar; otherwise the widest this CPU has, or AVX2 alone).
func FuzzActPanel(f *testing.F) {
	f.Add(int64(1), uint8(67), uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(2), uint8(1))
	f.Add(int64(3), uint8(5), uint8(1), uint8(2))
	kernels := panelKernels(f)
	paths := vectorPaths()
	f.Fuzz(func(t *testing.T, seed int64, n, k, vec uint8) {
		p := paths[int(vec)%len(paths)]
		restore := stats.SetVectorKernels(p[0], p[1])
		defer restore()
		mu, va := panelInputs(rand.New(rand.NewSource(seed)), 1+int(n)%67)
		var sc core.ActScratch
		requirePanelMatches(t, kernels[int(k)%len(kernels)], mu, va, &sc)
	})
}
