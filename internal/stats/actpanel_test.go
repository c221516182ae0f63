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

// vectorPaths lists the kernel selections this CPU can run: the scalar
// reference, and each vector width it has. SetVectorKernels switches the
// GaussTerms kernel and the panel's own passes together: the AVX-512
// selection runs core's AVX-512 passes, the others its Go passes.
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
// row count 1–67 (ragged against vector widths 4 and 8), counts at and
// around the 256-element tile and spanning several tiles, every kernel
// selection this CPU can run. One scratch serves every count, so it also
// grows under reuse.
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
			for _, n := range []int{255, 256, 257, 300, 777} {
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

// tanhKnots returns the interior knots of the served 7-piece tanh.
func tanhKnots(tb testing.TB) []float64 {
	tb.Helper()
	f, err := piecewise.Tanh(7)
	if err != nil {
		tb.Fatal(err)
	}
	k := f.Knots()
	return k[1 : len(k)-1]
}

// panelLane maps one fuzz byte to a pre-activation (mean, variance) of the
// class its low three bits pick, against the interior knots x of the 7-piece
// tanh; the high five bits pick the variant.
//
//	0    point mass at a knot, one ulp either side of it, ±Inf or NaN
//	1    non-finite mean or variance
//	2    a +0 or −0 mean over a ladder of variances (0 included)
//	3    no live knot: a mean between knots with a tiny σ, a knot
//	     standardized to exactly ±TailZ (σ a power of two), or a mean of
//	     ±1e160 whose dead pieces would overflow the full assembly
//	4–7  exactly L = 0…6 live knots: a window of L consecutive knots inside
//	     ±TailZ·σ and its neighbours outside
func panelLane(b byte, x []float64) (mu, va float64) {
	v := int(b >> 3)
	switch b & 7 {
	case 0:
		t := x[v%len(x)]
		pts := []float64{t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)), math.Inf(1), math.Inf(-1), math.NaN()}
		mu = pts[(v/len(x))%len(pts)]
		if v&1 == 1 && !math.IsNaN(mu) && !math.IsInf(mu, 0) {
			// Just under the point-mass floor rather than exactly zero.
			s := 0.5 * core.SigmaFloor * (1 + math.Abs(mu))
			return mu, s * s
		}
		return mu, 0
	case 1:
		specials := [][2]float64{{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 0.25}, {0.3, math.Inf(1)}, {0.3, math.NaN()}, {math.NaN(), math.NaN()}, {math.Inf(-1), math.Inf(1)}, {-2, -1}}
		p := specials[v%len(specials)]
		return p[0], p[1]
	case 2:
		ladder := []float64{0, 1e-30, 1e-6, 0.0016, 0.25, 1, 100, 1e300}
		mu = 0
		if v&1 == 1 {
			mu = math.Copysign(0, -1)
		}
		return mu, ladder[(v>>1)%len(ladder)]
	case 3:
		a := (v >> 2) % (len(x) + 1)
		switch v & 3 {
		case 2: // a knot standardized to exactly ±TailZ
			sigma := math.Ldexp(1, -(v>>2)%6-2)
			side := float64(2*((v>>4)&1) - 1)
			return x[a%len(x)] + side*stats.TailZ*sigma, sigma * sigma
		case 3: // a mean so large that a dead piece's d² overflows
			return math.Copysign(1e160, float64(v&4)-2), 1e300
		}
		lo, hi := -4.0, 4.0
		if a > 0 {
			lo = x[a-1]
		}
		if a < len(x) {
			hi = x[a]
		}
		return (lo + hi) / 2, math.Pow((hi-lo)/200, 2)
	}
	live := v % (len(x) + 1)
	a := (v / (len(x) + 1)) % (len(x) - live + 1)
	if live == 0 {
		return panelLane(byte(a<<5|3), x)
	}
	first, last := x[a], x[a+live-1]
	mu = (first + last) / 2
	r := (last - first) / 2
	out := math.Inf(1)
	if a > 0 {
		out = mu - x[a-1]
	}
	if a+live < len(x) {
		out = math.Min(out, x[a+live]-mu)
	}
	reach := 1.5*r + 0.1 // 9σ: past the window, short of its neighbours
	if !math.IsInf(out, 1) {
		reach = (r + out) / 2
	}
	sigma := reach / stats.TailZ
	return mu, sigma * sigma
}

// FuzzPanelLanes builds a panel lane by lane from the fuzz bytes (one
// lane per byte, panelLane's classes) and checks every kernel on every
// kernel selection this CPU can run. The checked-in seeds cover ragged and
// tile-edge lengths (1–17, 255–257, 777), groups whose lanes have 0 through
// 6 live tanh knots, point-mass, non-finite, one-piece and assembled lanes
// in one group, and signed-zero means.
func FuzzPanelLanes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	kernels := panelKernels(f)
	paths := vectorPaths()
	x := tanhKnots(f)
	f.Fuzz(func(t *testing.T, lanes []byte) {
		if len(lanes) == 0 || len(lanes) > 2048 {
			t.Skip()
		}
		mu, va := make([]float64, len(lanes)), make([]float64, len(lanes))
		for i, b := range lanes {
			mu[i], va[i] = panelLane(b, x)
		}
		for _, p := range paths {
			restore := stats.SetVectorKernels(p[0], p[1])
			for _, ak := range kernels {
				var sc core.ActScratch
				requirePanelMatches(t, ak, mu, va, &sc)
			}
			restore()
		}
	})
}

// TestPanelLaneClasses pins panelLane's live-knot classes: a byte of class
// 4–7 whose variant asks for L live knots yields a unit with exactly L
// interior tanh knots inside ±TailZ·σ.
func TestPanelLaneClasses(t *testing.T) {
	x := tanhKnots(t)
	for v := 0; v < 32; v++ {
		for c := 4; c < 8; c++ {
			mu, va := panelLane(byte(v<<3|c), x)
			live := 0
			for _, k := range x {
				if z := (k - mu) / math.Sqrt(va); -stats.TailZ < z && z < stats.TailZ {
					live++
				}
			}
			if want := v % (len(x) + 1); live != want {
				t.Errorf("byte %#x: %d live knots, want %d (mu=%v var=%v)", v<<3|c, live, want, mu, va)
			}
		}
	}
}
