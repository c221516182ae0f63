package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// fullAssembly is the every-piece form of ActKernel.Moments that the knot
// window replaces: one boundary per knot (±Inf ones included), the partial
// moments of every piece, and both sums over every piece.
func fullAssembly(f *piecewise.Func, mu, variance float64) (outMean, outVar float64) {
	sigma := math.Sqrt(variance)
	if sigma <= SigmaFloor*(1+math.Abs(mu)) {
		return f.Eval(mu), 0
	}
	knots := f.Knots()
	bs := make([]stats.Boundary, len(knots))
	for t, x := range knots {
		bs[t] = stats.BoundaryAt(x, mu, sigma)
	}
	n := f.NumPieces()
	pms := make([]stats.PartialMoments, n)
	for i := range pms {
		pms[i] = stats.MomentsBetween(bs[i], bs[i+1], sigma)
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

// windowFuncs are the PWL functions the window must reproduce: tanh and
// sigmoid at every supported piece count, the PWL leaky rectifier and ReLU
// (the propagator serves those exactly, but the PWL kernel must still hold),
// and the identity, whose single piece is always the one-piece form.
func windowFuncs(tb testing.TB) []*piecewise.Func {
	tb.Helper()
	funcs := []*piecewise.Func{piecewise.LeakyReLU(nn.LeakyAlpha), piecewise.ReLU(), piecewise.Identity()}
	for _, pieces := range []int{3, 5, 7, 9} {
		th, err := piecewise.Tanh(pieces)
		if err != nil {
			tb.Fatal(err)
		}
		sg, err := piecewise.Sigmoid(pieces)
		if err != nil {
			tb.Fatal(err)
		}
		funcs = append(funcs, th, sg)
	}
	return funcs
}

// sameBits reports bit equality, except that any two NaNs match: a NaN's
// sign and payload follow the operand order the compiler picks.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// requireWindowMatches checks one (mu, variance) bit for bit.
func requireWindowMatches(tb testing.TB, f *piecewise.Func, ak *ActKernel, bounds []stats.Boundary, pms []stats.PartialMoments, mu, variance float64) {
	tb.Helper()
	wantM, wantV := fullAssembly(f, mu, variance)
	gotM, gotV := ak.Moments(mu, variance, bounds, pms)
	if !sameBits(gotM, wantM) || !sameBits(gotV, wantV) {
		tb.Fatalf("%s (%d pieces) mu=%v var=%v: window (%v, %v) != full assembly (%v, %v)",
			f.Name(), f.NumPieces(), mu, variance, gotM, gotV, wantM, wantV)
	}
}

// TestKnotWindowMatchesFullAssembly pins the knot window — dead knots
// skipped, dead pieces skipped, the one-piece closed form — to the
// every-piece assembly bit for bit, with μ exactly ±TailZ·σ from each knot
// (and one ulp either side), σ from just above the point-mass floor to 1e3,
// and non-finite moments.
func TestKnotWindowMatchesFullAssembly(t *testing.T) {
	// Powers of two make z = ±TailZ exact at some knots, so the cutoff's
	// own comparison is exercised, not only its neighbourhood.
	sigmas := []float64{1e-9, 1e-6, 1e-3, 0.04, 0.0625, 0.08, 0.25, 0.5, 1, 2, 7.3, 32, 64, 256, 1e3, 1024}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(15))
	for _, f := range windowFuncs(t) {
		ak := NewActKernel(f)
		bounds := make([]stats.Boundary, ak.NumBounds())
		pms := make([]stats.PartialMoments, ak.NumBounds())
		check := func(mu, variance float64) {
			t.Helper()
			requireWindowMatches(t, f, ak, bounds, pms, mu, variance)
		}
		knots := append([]float64{0}, f.Knots()...)
		for _, x := range knots {
			if math.IsInf(x, 0) {
				continue
			}
			for _, sigma := range sigmas {
				for _, off := range []float64{-stats.TailZ, stats.TailZ, -stats.TailZ - 1, stats.TailZ + 1, -1, 0, 1} {
					mu := x + off*sigma
					for _, m := range []float64{mu, math.Nextafter(mu, math.Inf(-1)), math.Nextafter(mu, math.Inf(1))} {
						check(m, sigma*sigma)
					}
				}
			}
			// σ just above the point-mass floor, where z reaches ~1e12.
			for _, mu := range []float64{x, x + 1e-9, x - 1e-9, x + 0.5} {
				sigma := SigmaFloor * (1 + math.Abs(mu))
				for _, s := range []float64{sigma, math.Nextafter(sigma, 1), sigma * (1 + 1e-9), 10 * sigma} {
					check(mu, s*s)
				}
			}
		}
		for _, v := range nonFinite {
			check(v, 1)
			check(0.3, v)
			check(v, v)
		}
		for trial := 0; trial < 2000; trial++ {
			sigma := sigmas[rng.Intn(len(sigmas))]
			check(rng.NormFloat64()*4, sigma*sigma*rng.Float64()*2)
		}
	}
}

// FuzzKnotWindow is TestKnotWindowMatchesFullAssembly on fuzzed moments.
// Finite |μ| above 1e150 or variances above 1e300 are skipped: there the
// full assembly's d² term of a dead piece overflows to Inf·0 = NaN, while
// the window never evaluates a dead piece and stays finite.
func FuzzKnotWindow(f *testing.F) {
	for _, seed := range []struct {
		mu, variance float64
		fi           uint8
	}{
		{0, 1, 0}, {0.3, 0.0016, 5}, {-3.36, 0.0016, 5}, {3.5, 0.25, 8}, {-294, 1024, 6},
		{2.5, 1e-24, 7}, {math.NaN(), 1, 5}, {0.1, math.Inf(1), 9}, {1e6, 1e10, 2},
	} {
		f.Add(seed.mu, seed.variance, seed.fi)
	}
	funcs := windowFuncs(f)
	kernels := make([]*ActKernel, len(funcs))
	for i, fn := range funcs {
		kernels[i] = NewActKernel(fn)
	}
	f.Fuzz(func(t *testing.T, mu, variance float64, fi uint8) {
		if (isFinite(mu) && math.Abs(mu) > 1e150) || (isFinite(variance) && variance > 1e300) {
			t.Skip()
		}
		i := int(fi) % len(funcs)
		ak := kernels[i]
		bounds := make([]stats.Boundary, ak.NumBounds())
		pms := make([]stats.PartialMoments, ak.NumBounds())
		requireWindowMatches(t, funcs[i], ak, bounds, pms, mu, variance)
	})
}

// benchLayer1 returns the layer-1 (second hidden layer) pre-activation
// moments of perfbench's 5-256-256-1 model for 64 standard-normal input
// rows: weights from seed 20180702, biases 0.1·N(0,1) from seed 20180703,
// and act's kernel. These are the inputs the served activation step sees.
func benchLayer1(b *testing.B, act nn.Activation) (*ActKernel, []float64, []float64) {
	b.Helper()
	net := perfbenchNet(b, act)
	_, ak0, err := KernelFor(act, Options{})
	if err != nil {
		b.Fatal(err)
	}
	l0, l1 := net.Layers()[0], net.Layers()[1]
	rng := rand.New(rand.NewSource(1))
	bounds := make([]stats.Boundary, ak0.NumBounds())
	pms := make([]stats.PartialMoments, ak0.NumBounds())
	var mus, vars []float64
	for r := 0; r < 64; r++ {
		x := make(tensor.Vector, 5)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		g, err := DenseMoments(Deterministic(x), l0, l0.W.Square())
		if err != nil {
			b.Fatal(err)
		}
		for j := range g.Mean {
			g.Mean[j], g.Var[j] = ak0.Moments(g.Mean[j], math.Max(g.Var[j], 0), bounds, pms)
		}
		if g, err = DenseMoments(g, l1, l1.W.Square()); err != nil {
			b.Fatal(err)
		}
		for j := range g.Mean {
			mus = append(mus, g.Mean[j])
			vars = append(vars, math.Max(g.Var[j], 0))
		}
	}
	return ak0, mus, vars
}

// perfbenchNet builds perfbench's 5-256-256-1 dense model with act hidden
// units: weights from seed 20180702, biases 0.1·N(0,1) from seed 20180703.
func perfbenchNet(b *testing.B, act nn.Activation) *nn.Network {
	b.Helper()
	const modelSeed = 20180702
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: act, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: modelSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	brng := rand.New(rand.NewSource(modelSeed + 1))
	for _, l := range net.Layers() {
		for j := range l.B {
			l.B[j] = 0.1 * brng.NormFloat64()
		}
	}
	return net
}

// benchmarkActKernel times one unit of the activation-moment step per op,
// cycling through the layer-1 pre-activations.
func benchmarkActKernel(b *testing.B, act nn.Activation) {
	ak, mus, vars := benchLayer1(b, act)
	bounds := make([]stats.Boundary, ak.NumBounds())
	pms := make([]stats.PartialMoments, ak.NumBounds())
	var sink float64
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		m, v := ak.Moments(mus[j], vars[j], bounds, pms)
		sink += m + v
		if j++; j == len(mus) {
			j = 0
		}
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN moments")
	}
}

func BenchmarkActKernelTanh7(b *testing.B) { benchmarkActKernel(b, nn.ActTanh) }
func BenchmarkActKernelReLU(b *testing.B)  { benchmarkActKernel(b, nn.ActReLU) }

// benchmarkActPanel times the layer-1 activation step as the engine runs it:
// the 64×256 pre-activation panel through MomentsPanel one 256-unit row at a
// time (as activate does), reported per unit. The copy that restores the
// inputs each round is inside the timing.
func benchmarkActPanel(b *testing.B, act nn.Activation) {
	ak, mus, vars := benchLayer1(b, act)
	const width = 256
	mu, va := make([]float64, len(mus)), make([]float64, len(vars))
	var sc ActScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(mu, mus)
		copy(va, vars)
		for r := 0; r < len(mu); r += width {
			ak.MomentsPanel(mu[r:r+width], va[r:r+width], &sc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mus)), "ns/unit")
}

func BenchmarkActPanelTanh7(b *testing.B) { benchmarkActPanel(b, nn.ActTanh) }
func BenchmarkActPanelReLU(b *testing.B)  { benchmarkActPanel(b, nn.ActReLU) }

// TestEvalPointMatchesEval pins the point-mass lookup to piecewise.Func.Eval
// bit for bit at every knot, one ulp either side of it, ±Inf and NaN.
func TestEvalPointMatchesEval(t *testing.T) {
	for _, f := range windowFuncs(t) {
		ak := NewActKernel(f)
		xs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
		for _, k := range f.Knots() {
			xs = append(xs, k, math.Nextafter(k, math.Inf(-1)), math.Nextafter(k, math.Inf(1)))
		}
		for _, x := range xs {
			if got, want := ak.evalPoint(x), f.Eval(x); !sameBits(got, want) {
				t.Errorf("%s: evalPoint(%v) = %v, Eval = %v", f.Name(), x, got, want)
			}
		}
	}
}
