package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormPDF(t *testing.T) {
	// Standard normal at 0 is 1/sqrt(2π).
	if got := NormPDF(0, 0, 1); math.Abs(got-0.3989422804014327) > 1e-15 {
		t.Errorf("NormPDF(0,0,1) = %v", got)
	}
	// Symmetry.
	if NormPDF(1.3, 0, 1) != NormPDF(-1.3, 0, 1) {
		t.Error("NormPDF not symmetric")
	}
	// Scaling: N(mu, sigma) at mu equals standard peak / sigma.
	if got := NormPDF(5, 5, 2); math.Abs(got-0.3989422804014327/2) > 1e-15 {
		t.Errorf("NormPDF(5,5,2) = %v", got)
	}
}

func TestNormCDF(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.5},
		{1.96, 0, 1, 0.9750021048517795},
		{-1.96, 0, 1, 0.0249978951482205},
		{10, 10, 3, 0.5},
	}
	for _, c := range cases {
		if got := NormCDF(c.x, c.mu, c.sigma); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, q := range []float64{1e-10, 0.001, 0.025, 0.25, 0.5, 0.75, 0.975, 0.999, 1 - 1e-10} {
		x := NormQuantile(q, 0, 1)
		back := NormCDF(x, 0, 1)
		if math.Abs(back-q) > 1e-9 {
			t.Errorf("quantile round-trip q=%v: x=%v, CDF(x)=%v", q, x, back)
		}
	}
	if !math.IsInf(NormQuantile(0, 0, 1), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(NormQuantile(1, 0, 1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	// Location-scale.
	if got := NormQuantile(0.5, 7, 3); math.Abs(got-7) > 1e-9 {
		t.Errorf("median of N(7,9) = %v, want 7", got)
	}
}

func TestGaussianNLL(t *testing.T) {
	// At the mean with unit variance: 0.5 log(2π).
	want := 0.5 * math.Log(2*math.Pi)
	if got := GaussianNLL(0, 0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("GaussianNLL(0,0,1) = %v, want %v", got, want)
	}
	// NLL = -log pdf.
	x, mu, v := 1.7, 0.4, 2.3
	if got, w := GaussianNLL(x, mu, v), -math.Log(NormPDF(x, mu, math.Sqrt(v))); math.Abs(got-w) > 1e-12 {
		t.Errorf("GaussianNLL = %v, want -log pdf = %v", got, w)
	}
}

func TestTruncatedMomentsFullLine(t *testing.T) {
	// Over (-inf, +inf), D=1, M=0, V=sigma².
	pm := TruncatedMoments(math.Inf(-1), math.Inf(1), 2.5, 1.7)
	if math.Abs(pm.D-1) > 1e-12 {
		t.Errorf("D = %v, want 1", pm.D)
	}
	if math.Abs(pm.M) > 1e-12 {
		t.Errorf("M = %v, want 0", pm.M)
	}
	if math.Abs(pm.V-1.7*1.7) > 1e-10 {
		t.Errorf("V = %v, want %v", pm.V, 1.7*1.7)
	}
}

func TestTruncatedMomentsHalfLine(t *testing.T) {
	// Standard normal over [0, inf): D=1/2, M=sigma/sqrt(2π), V=sigma²/2.
	pm := TruncatedMoments(0, math.Inf(1), 0, 1)
	if math.Abs(pm.D-0.5) > 1e-12 {
		t.Errorf("D = %v, want 0.5", pm.D)
	}
	if math.Abs(pm.M-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Errorf("M = %v, want %v", pm.M, 1/math.Sqrt(2*math.Pi))
	}
	if math.Abs(pm.V-0.5) > 1e-12 {
		t.Errorf("V = %v, want 0.5", pm.V)
	}
}

// TestTruncatedMomentsVsNumeric checks D, M, V against trapezoid-rule
// numerical integration for random finite intervals.
func TestTruncatedMomentsVsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mu := rng.NormFloat64() * 3
		sigma := 0.2 + 3*rng.Float64()
		lo := mu + sigma*(rng.Float64()*6-3)
		hi := lo + sigma*rng.Float64()*4
		pm := TruncatedMoments(lo, hi, mu, sigma)

		const steps = 20000
		var d, m, v float64
		h := (hi - lo) / steps
		for i := 0; i <= steps; i++ {
			x := lo + float64(i)*h
			wgt := h
			if i == 0 || i == steps {
				wgt = h / 2
			}
			p := NormPDF(x, mu, sigma)
			d += wgt * p
			m += wgt * (x - mu) * p
			v += wgt * (x - mu) * (x - mu) * p
		}
		if math.Abs(pm.D-d) > 1e-6 {
			t.Fatalf("trial %d: D=%v, numeric %v (lo=%v hi=%v mu=%v s=%v)", trial, pm.D, d, lo, hi, mu, sigma)
		}
		if math.Abs(pm.M-m) > 1e-6 {
			t.Fatalf("trial %d: M=%v, numeric %v", trial, pm.M, m)
		}
		if math.Abs(pm.V-v) > 1e-6 {
			t.Fatalf("trial %d: V=%v, numeric %v", trial, pm.V, v)
		}
	}
}

func TestTruncatedMomentsFarTail(t *testing.T) {
	// A piece 50 sigma into the tail: everything underflows to zero, no NaN.
	pm := TruncatedMoments(50, 60, 0, 1)
	if pm.D != 0 || pm.M != 0 || pm.V != 0 {
		t.Errorf("far-tail moments = %+v, want zeros", pm)
	}
	if math.IsNaN(pm.D) || math.IsNaN(pm.M) || math.IsNaN(pm.V) {
		t.Error("far-tail moments produced NaN")
	}
}

// Property: partial moments over adjacent pieces add up to the full-interval
// moments, which is the additivity the layer-wise approximation relies on.
func TestPropertyMomentsAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := rng.NormFloat64() * 2
		sigma := 0.3 + 2*rng.Float64()
		mid := mu + sigma*(rng.Float64()*4-2)
		left := TruncatedMoments(math.Inf(-1), mid, mu, sigma)
		right := TruncatedMoments(mid, math.Inf(1), mu, sigma)
		whole := TruncatedMoments(math.Inf(-1), math.Inf(1), mu, sigma)
		return math.Abs(left.D+right.D-whole.D) < 1e-10 &&
			math.Abs(left.M+right.M-whole.M) < 1e-10 &&
			math.Abs(left.V+right.V-whole.V) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d, want 8", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.SampleVariance()-32.0/7.0) > 1e-12 {
		t.Errorf("SampleVariance = %v, want %v", w.SampleVariance(), 32.0/7.0)
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", w.Std())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Mean() != 0 {
		t.Error("empty Welford should be zero")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Error("single-sample variance should be 0")
	}
}

// TestWelfordState: an accumulator rebuilt from State continues the stream
// bit for bit, and a negative count is rejected.
func TestWelfordState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var live Welford
	for i := 0; i < 100; i++ {
		live.Add(rng.NormFloat64()*3 + 1)
	}
	restored, err := WelfordFromState(live.State())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		live.Add(x)
		restored.Add(x)
	}
	if restored != live {
		t.Fatalf("restored accumulator diverged: %+v vs %+v", restored, live)
	}
	if _, err := WelfordFromState(-1, 0, 0); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestVecWelford(t *testing.T) {
	w := NewVecWelford(2)
	if w.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", w.Dim())
	}
	w.Add([]float64{1, 10})
	w.Add([]float64{3, 30})
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}
	mean := w.Mean()
	if mean[0] != 2 || mean[1] != 20 {
		t.Errorf("Mean = %v, want [2 20]", mean)
	}
	v := w.Variance()
	if v[0] != 1 || v[1] != 100 {
		t.Errorf("Variance = %v, want [1 100]", v)
	}
	sv := w.SampleVariance()
	if sv[0] != 2 || sv[1] != 200 {
		t.Errorf("SampleVariance = %v, want [2 200]", sv)
	}
	// Returned slices are copies.
	mean[0] = 999
	if w.Mean()[0] == 999 {
		t.Error("Mean returned internal storage")
	}
}

func TestVecWelfordMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vw := NewVecWelford(3)
	ws := make([]Welford, 3)
	for i := 0; i < 500; i++ {
		x := []float64{rng.NormFloat64(), rng.Float64() * 10, rng.ExpFloat64()}
		vw.Add(x)
		for j := range ws {
			ws[j].Add(x[j])
		}
	}
	mean, vr := vw.Mean(), vw.Variance()
	for j := range ws {
		if math.Abs(mean[j]-ws[j].Mean()) > 1e-12 {
			t.Errorf("dim %d mean mismatch", j)
		}
		if math.Abs(vr[j]-ws[j].Variance()) > 1e-12 {
			t.Errorf("dim %d variance mismatch", j)
		}
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, x := range []float64{0.5, 1, 3, 5, 7, 9, -5, 15} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	// -5 clamps into bin 0, 15 into bin 4.
	if h.Counts[0] != 3 { // 0.5, 1, -5
		t.Errorf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9, 15
		t.Errorf("bin 4 = %d, want 2", h.Counts[4])
	}
	if c := h.BinCenter(0); c != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("expected error for 0 bins")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("expected error for empty range")
	}
}

func TestHistogramNonFinite(t *testing.T) {
	// Regression: Add used to push NaN through int(float64), which the Go
	// spec leaves implementation-defined (bin 0 on amd64, elsewhere on other
	// targets) — one NaN-emitting producer silently poisoned bin 0. Non-
	// finite samples must land in the NonFinite counter and nowhere else.
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	if h.NonFinite != 3 {
		t.Errorf("NonFinite = %d, want 3", h.NonFinite)
	}
	if h.Total() != 0 {
		t.Errorf("Total = %d, want 0 (non-finite samples are not observations)", h.Total())
	}
	for i, c := range h.Counts {
		if c != 0 {
			t.Errorf("bin %d = %d, want 0", i, c)
		}
	}
	// Finite samples still bin normally alongside dropped ones.
	h.Add(0.5)
	h.Add(math.NaN())
	if h.Counts[0] != 1 || h.Total() != 1 || h.NonFinite != 4 {
		t.Errorf("after mixed adds: bin0=%d total=%d nonfinite=%d, want 1/1/4",
			h.Counts[0], h.Total(), h.NonFinite)
	}
	if got := h.Render(10); !strings.Contains(got, "non-fin") {
		t.Errorf("Render does not surface the non-finite count:\n%s", got)
	}
	// A histogram with no dropped samples renders exactly as before.
	clean, _ := NewHistogram(0, 10, 5)
	clean.Add(1)
	if got := clean.Render(10); strings.Contains(got, "non-fin") {
		t.Errorf("Render shows a non-finite line with none dropped:\n%s", got)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h, _ := NewHistogram(-4, 4, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Add(rng.NormFloat64())
	}
	w := 8.0 / 64.0
	var total float64
	for i := range h.Counts {
		total += h.Density(i) * w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("density integrates to %v, want 1", total)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render(10)
	if out == "" {
		t.Fatal("empty render")
	}
	// Zero-width falls back to default.
	if h.Render(0) == "" {
		t.Error("Render(0) empty")
	}
}

func TestGaussianFitError(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gauss, _ := NewHistogram(-5, 5, 50)
	var w Welford
	for i := 0; i < 50000; i++ {
		x := rng.NormFloat64()
		gauss.Add(x)
		w.Add(x)
	}
	if err := gauss.GaussianFitError(w.Mean(), w.Std()); err > 0.03 {
		t.Errorf("Gaussian samples fit error = %v, want < 0.03", err)
	}

	// A uniform distribution should fit much worse.
	unif, _ := NewHistogram(-5, 5, 50)
	var wu Welford
	for i := 0; i < 50000; i++ {
		x := rng.Float64()*8 - 4
		unif.Add(x)
		wu.Add(x)
	}
	if err := unif.GaussianFitError(wu.Mean(), wu.Std()); err < 0.1 {
		t.Errorf("uniform samples fit error = %v, want > 0.1", err)
	}

	// Degenerate inputs.
	empty, _ := NewHistogram(0, 1, 2)
	if empty.GaussianFitError(0, 1) != 1 {
		t.Error("empty histogram should report fit error 1")
	}
	if gauss.GaussianFitError(0, 0) != 1 {
		t.Error("zero sigma should report fit error 1")
	}
}

// TestBoundaryDecompositionExact verifies that assembling partial moments
// from shared per-knot Boundary terms is bit-identical to the direct
// TruncatedMoments computation — the property the batched activation kernel
// in internal/core relies on for batch-vs-sequential parity.
func TestBoundaryDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	intervals := [][2]float64{
		{math.Inf(-1), -1.2}, {-1.2, 0}, {0, 0.7}, {0.7, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)}, {50, 60},
	}
	for trial := 0; trial < 200; trial++ {
		mu := rng.NormFloat64() * 3
		sigma := 1e-6 + 3*rng.Float64()
		for _, iv := range intervals {
			want := TruncatedMoments(iv[0], iv[1], mu, sigma)
			got := MomentsBetween(BoundaryAt(iv[0], mu, sigma), BoundaryAt(iv[1], mu, sigma), sigma)
			if got != want {
				t.Fatalf("interval %v mu=%v sigma=%v: decomposed %+v != direct %+v", iv, mu, sigma, got, want)
			}
		}
	}
}
