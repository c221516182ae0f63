package stats

import (
	"math"
	"testing"
)

// knotGrids are representative PWL knot sets (interior knots of relu and of
// 7-piece sigmoid/tanh-like fits) used to check that piece masses partition
// the total probability.
var knotGrids = [][]float64{
	{0},
	{-4, -2, -0.7, 0.7, 2, 4},
	{-8.5, -1e-3, 1e-3, 8.5},
}

// edgeParams crosses distribution parameters the partial moments must
// survive: knots standardized past |z| = 8 (tail saturation), σ close to the
// point-mass regime, and very wide spreads.
var edgeParams = []struct {
	mu, sigma float64
}{
	{0, 1},
	{0, 1e-9},
	{0, 1e6},
	{25, 1},       // every knot at z < -8: total tail saturation
	{-25, 1},      // every knot at z > 8
	{1e6, 1e-3},   // extreme |z| ~ 1e9
	{-3.5, 1e-12}, // sigma at the scale of the propagation point-mass floor
	{0.7, 1e-9},   // sigma tiny with mu exactly on a knot
}

// TestTruncatedMomentsPartition checks Σ_p D_p = 1, Σ_p M_p = 0, and
// Σ_p V_p = σ² when the pieces tile (−∞, +∞): the defining partition
// identities of eqs. 23–25, which any boundary-sharing optimization must
// preserve exactly.
func TestTruncatedMomentsPartition(t *testing.T) {
	for _, knots := range knotGrids {
		for _, p := range edgeParams {
			edges := append(append([]float64{math.Inf(-1)}, knots...), math.Inf(1))
			var sumD, sumM, sumV float64
			for i := 0; i+1 < len(edges); i++ {
				pm := TruncatedMoments(edges[i], edges[i+1], p.mu, p.sigma)
				if pm.D < 0 || pm.D > 1+1e-15 {
					t.Fatalf("knots %v mu=%v sigma=%v piece %d: D = %v outside [0, 1]", knots, p.mu, p.sigma, i, pm.D)
				}
				if pm.V < 0 {
					t.Fatalf("knots %v mu=%v sigma=%v piece %d: V = %v < 0", knots, p.mu, p.sigma, i, pm.V)
				}
				sumD += pm.D
				sumM += pm.M
				sumV += pm.V
			}
			if math.Abs(sumD-1) > 1e-12 {
				t.Errorf("knots %v mu=%v sigma=%v: Σ D = %v, want 1", knots, p.mu, p.sigma, sumD)
			}
			if math.Abs(sumM) > 1e-12*p.sigma {
				t.Errorf("knots %v mu=%v sigma=%v: Σ M = %v, want 0 (tol %g)", knots, p.mu, p.sigma, sumM, 1e-12*p.sigma)
			}
			if s2 := p.sigma * p.sigma; math.Abs(sumV-s2) > 1e-12*s2 {
				t.Errorf("knots %v mu=%v sigma=%v: Σ V = %v, want σ² = %v", knots, p.mu, p.sigma, sumV, s2)
			}
		}
	}
}

// TestTruncatedMomentsTailSaturation pins the |z| > 8 behavior: a piece
// lying entirely beyond 8σ carries essentially no mass, and the complement
// piece carries essentially all of it — with every term finite.
func TestTruncatedMomentsTailSaturation(t *testing.T) {
	for _, sigma := range []float64{1e-9, 1, 1e6} {
		mu := 3.25
		far := mu + 8.5*sigma
		tail := TruncatedMoments(far, math.Inf(1), mu, sigma)
		if tail.D > 1e-16 {
			t.Errorf("sigma=%v: mass beyond 8.5σ = %v, want < 1e-16", sigma, tail.D)
		}
		if tail.M < 0 || tail.V < 0 {
			t.Errorf("sigma=%v: tail moments negative: %+v", sigma, tail)
		}
		bulk := TruncatedMoments(math.Inf(-1), far, mu, sigma)
		if math.Abs(bulk.D-1) > 1e-15 {
			t.Errorf("sigma=%v: bulk mass = %v, want ≈1", sigma, bulk.D)
		}
		// Far left tail: both phi terms underflow together, no 0·Inf or NaN.
		left := TruncatedMoments(math.Inf(-1), mu-40*sigma, mu, sigma)
		if left.D != 0 || left.M != 0 || left.V != 0 {
			t.Errorf("sigma=%v: 40σ left tail = %+v, want exact zeros", sigma, left)
		}
	}
}

// TestTruncatedMomentsPointMassLimit drives σ→0 over a fixed interval: the
// moments must converge to the indicator of mu ∈ [lo, hi] with vanishing
// central moments, never to NaN.
func TestTruncatedMomentsPointMassLimit(t *testing.T) {
	for _, sigma := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-300} {
		in := TruncatedMoments(-1, 1, 0.25, sigma)
		if math.Abs(in.D-1) > 1e-15 {
			t.Errorf("sigma=%v: D over containing interval = %v, want 1", sigma, in.D)
		}
		if math.Abs(in.M) > sigma || in.V > sigma*sigma*(1+1e-12) {
			t.Errorf("sigma=%v: central moments M=%v V=%v exceed σ scales", sigma, in.M, in.V)
		}
		out := TruncatedMoments(-1, 1, 7.5, sigma)
		if out.D != 0 || out.M != 0 || out.V != 0 {
			t.Errorf("sigma=%v: moments of excluded interval = %+v, want zeros", sigma, out)
		}
	}
}

// TestTruncatedMomentsInfiniteBounds checks the doubly-infinite piece (a
// k = 0 constant piece spanning the whole line sees exactly the full
// distribution) and the half-infinite forms used by relu's two pieces.
func TestTruncatedMomentsInfiniteBounds(t *testing.T) {
	for _, p := range edgeParams {
		full := TruncatedMoments(math.Inf(-1), math.Inf(1), p.mu, p.sigma)
		if full.D != 1 {
			t.Errorf("mu=%v sigma=%v: full-line D = %v, want exactly 1", p.mu, p.sigma, full.D)
		}
		if full.M != 0 {
			t.Errorf("mu=%v sigma=%v: full-line M = %v, want exactly 0", p.mu, p.sigma, full.M)
		}
		s2 := p.sigma * p.sigma
		if math.Abs(full.V-s2) > 1e-15*s2 {
			t.Errorf("mu=%v sigma=%v: full-line V = %v, want σ² = %v", p.mu, p.sigma, full.V, s2)
		}
		lo := TruncatedMoments(math.Inf(-1), p.mu, p.mu, p.sigma)
		hi := TruncatedMoments(p.mu, math.Inf(1), p.mu, p.sigma)
		if math.Abs(lo.D-0.5) > 1e-15 || math.Abs(hi.D-0.5) > 1e-15 {
			t.Errorf("mu=%v sigma=%v: half-line masses %v, %v, want 0.5 each", p.mu, p.sigma, lo.D, hi.D)
		}
	}
}

// TestTruncatedMomentsNoNaNLeaks sweeps a hostile parameter grid and
// requires every returned moment to be finite: the moment kernels feed
// these values straight into matmuls, where a single NaN poisons the batch.
func TestTruncatedMomentsNoNaNLeaks(t *testing.T) {
	// sigma stays below ~1.3e154 so sigma² is representable: callers derive
	// sigma from a float64 variance, so larger values cannot reach the
	// library (and σ²·0 would be Inf·0 = NaN beyond that point).
	bounds := []float64{math.Inf(-1), -1e300, -1e6, -1, -1e-300, 0, 1e-300, 1, 1e6, 1e300, math.Inf(1)}
	sigmas := []float64{1e-300, 1e-15, 1e-3, 1, 1e3, 1e15, 1e150}
	mus := []float64{-1e6, -1, 0, 1e-9, 1, 1e6}
	check := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s is %v", name, v)
		}
	}
	for _, mu := range mus {
		for _, sigma := range sigmas {
			for i, lo := range bounds {
				for _, hi := range bounds[i:] {
					pm := TruncatedMoments(lo, hi, mu, sigma)
					check("D", pm.D)
					check("M", pm.M)
					check("V", pm.V)
					bl, bh := BoundaryAt(lo, mu, sigma), BoundaryAt(hi, mu, sigma)
					bb := MomentsBetween(bl, bh, sigma)
					check("boundary D", bb.D)
					check("boundary M", bb.M)
					check("boundary V", bb.V)
				}
			}
		}
	}
}

// TestMomentsBetweenBitIdentical verifies the documented contract that
// boundary-sharing assembly reproduces TruncatedMoments bit for bit on the
// edge grid — the identity the batched activation kernel depends on.
func TestMomentsBetweenBitIdentical(t *testing.T) {
	for _, knots := range knotGrids {
		for _, p := range edgeParams {
			edges := append(append([]float64{math.Inf(-1)}, knots...), math.Inf(1))
			bs := make([]Boundary, len(edges))
			for i, x := range edges {
				bs[i] = BoundaryAt(x, p.mu, p.sigma)
			}
			for i := 0; i+1 < len(edges); i++ {
				direct := TruncatedMoments(edges[i], edges[i+1], p.mu, p.sigma)
				shared := MomentsBetween(bs[i], bs[i+1], p.sigma)
				if math.Float64bits(direct.D) != math.Float64bits(shared.D) ||
					math.Float64bits(direct.M) != math.Float64bits(shared.M) ||
					math.Float64bits(direct.V) != math.Float64bits(shared.V) {
					t.Errorf("knots %v mu=%v sigma=%v piece %d: direct %+v != shared %+v",
						knots, p.mu, p.sigma, i, direct, shared)
				}
			}
		}
	}
}

// TestTailCutoffPremise checks what the shared cutoff relies on: past
// TailZ, math.Erf(z/√2) is already exactly ±1 (so truncating leaves D
// untouched — this fails if TailZ drops below 6√2), and the dropped density
// terms φ(z) and |z|·φ(z) stay under TailPhiMax and TailZPhiMax, the bounds
// the oracle's truncation budget is derived from.
func TestTailCutoffPremise(t *testing.T) {
	zs := []float64{TailZ, math.Nextafter(TailZ, 100)}
	for z := float64(TailZ); z <= 40; z += 1.0 / 1024 {
		zs = append(zs, z)
	}
	for _, z := range zs {
		for _, s := range []float64{1, -1} {
			if e := math.Erf(s * z / sqrt2); math.Float64bits(e) != math.Float64bits(s) {
				t.Fatalf("erf(%v/√2) = %v (bits %#x), want exactly %v", s*z, e, math.Float64bits(e), s)
			}
			if b := BoundaryZ(s * z); b != (Boundary{Erf: s}) {
				t.Fatalf("BoundaryZ(%v) = %+v, want the constant tail boundary", s*z, b)
			}
		}
		phi := invSqrt2Pi * math.Exp(-0.5*z*z)
		if phi > TailPhiMax {
			t.Fatalf("φ(%v) = %v > TailPhiMax = %v", z, phi, TailPhiMax)
		}
		if zphi := z * phi; zphi > TailZPhiMax {
			t.Fatalf("%v·φ(%v) = %v > TailZPhiMax = %v", z, z, zphi, TailZPhiMax)
		}
	}
	// Just inside the cutoff the untruncated terms are kept.
	z := math.Nextafter(TailZ, 0)
	if b := BoundaryZ(-z); b.Phi == 0 || b.ZPhi == 0 {
		t.Errorf("BoundaryZ(%v) = %+v, want the untruncated density terms", -z, b)
	}
	if nan := BoundaryZ(math.NaN()); !math.IsNaN(nan.Erf) || !math.IsNaN(nan.Phi) || !math.IsNaN(nan.ZPhi) {
		t.Errorf("BoundaryZ(NaN) = %+v, want NaN in every term", nan)
	}
}
