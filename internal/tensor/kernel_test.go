package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// dualCase builds a weight row, its squared pair, and fresh accumulator rows
// pre-seeded with nonzero values so the tests catch kernels that overwrite
// instead of accumulate.
func dualCase(rng *rand.Rand, n int) (wm, wv []float64, acc func() []float64) {
	wm = make([]float64, n)
	wv = make([]float64, n)
	for i := range wm {
		wm[i] = rng.NormFloat64()
		if i%7 == 0 {
			wm[i] = 0
		}
		if i%11 == 3 {
			wm[i] = -wm[i]
		}
		wv[i] = wm[i] * wm[i]
	}
	seed := make([]float64, n)
	for i := range seed {
		seed[i] = rng.NormFloat64()
	}
	acc = func() []float64 { return append([]float64(nil), seed...) }
	return
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: vector %x != scalar %x",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestAxpyDualVectorScalarBitExact pins the single-row dual-moment vector
// kernel to the scalar loop bit for bit across lane-remainder lengths,
// negative zeros, and subnormal products. DualMulInto's tail rows — every
// per-sample propagation — ride on this kernel, so any deviation here is a
// bit-identity break there.
func TestAxpyDualVectorScalarBitExact(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX vector kernel on this machine")
	}
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 100, 255, 256} {
		wm, wv, acc := dualCase(rng, n)
		for _, x := range [][2]float64{
			{1.5, 0.25},
			{-0.0, 3.0},
			{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
			{rng.NormFloat64(), rng.Float64()},
		} {
			hasAVX, hasAVX512 = false, false
			sm, sv := acc(), acc()
			AxpyDual(x[0], x[1], wm, wv, sm, sv)

			kernels := []struct {
				name     string
				avx, zmm bool
			}{{"avx", true, false}}
			if saved512 {
				kernels = append(kernels, struct {
					name     string
					avx, zmm bool
				}{"avx512", true, true})
			}
			for _, kr := range kernels {
				hasAVX, hasAVX512 = kr.avx, kr.zmm
				gm, gv := acc(), acc()
				AxpyDual(x[0], x[1], wm, wv, gm, gv)
				bitsEqual(t, "AxpyDual/"+kr.name+"/mean", gm, sm)
				bitsEqual(t, "AxpyDual/"+kr.name+"/var", gv, sv)
			}
		}
		hasAVX, hasAVX512 = savedAVX, saved512
	}
}

// TestAxpy4DualVectorScalarBitExact pins the 4-row dual-moment vector kernel
// to two scalar Axpy4 passes bit for bit, across the same hostile lengths and
// scalars. Each of the eight destination rows must see exactly the separately
// rounded multiply-then-add sequence of the scalar loop.
func TestAxpy4DualVectorScalarBitExact(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX vector kernel on this machine")
	}
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65, 256} {
		wm, wv, acc := dualCase(rng, n)
		xs := [8]float64{
			rng.NormFloat64(), -0.0, math.SmallestNonzeroFloat64, rng.NormFloat64(),
			rng.Float64(), 1e-300, rng.Float64(), -rng.Float64(),
		}

		hasAVX, hasAVX512 = false, false
		want := make([][]float64, 8)
		for r := range want {
			want[r] = acc()
		}
		Axpy4Dual(xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6], xs[7],
			wm, wv, want[0], want[1], want[2], want[3], want[4], want[5], want[6], want[7])

		kernels := []struct {
			name     string
			avx, zmm bool
		}{{"avx", true, false}}
		if saved512 {
			kernels = append(kernels, struct {
				name     string
				avx, zmm bool
			}{"avx512", true, true})
		}
		for _, kr := range kernels {
			hasAVX, hasAVX512 = kr.avx, kr.zmm
			got := make([][]float64, 8)
			for r := range got {
				got[r] = acc()
			}
			Axpy4Dual(xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6], xs[7],
				wm, wv, got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7])
			for r := range got {
				bitsEqual(t, "Axpy4Dual/"+kr.name, got[r], want[r])
			}
		}
		hasAVX, hasAVX512 = savedAVX, saved512
	}
}

// TestAxpyDualNonFinite checks the dual kernels propagate NaN and Inf
// products exactly as the scalar loop does — the float engine's
// hostile-input guarantee leans on this.
func TestAxpyDualNonFinite(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX vector kernel on this machine")
	}
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	n := 13
	wm := make([]float64, n)
	wv := make([]float64, n)
	for i := range wm {
		wm[i] = float64(i - 6)
		wv[i] = wm[i] * wm[i]
	}
	wm[2] = math.Inf(1)
	wm[5] = math.NaN()
	wv[9] = math.Inf(-1)
	zero := func() []float64 { return make([]float64, n) }

	hasAVX, hasAVX512 = false, false
	sm, sv := zero(), zero()
	AxpyDual(math.Inf(-1), math.NaN(), wm, wv, sm, sv)

	hasAVX, hasAVX512 = true, false
	gm, gv := zero(), zero()
	AxpyDual(math.Inf(-1), math.NaN(), wm, wv, gm, gv)
	bitsEqual(t, "AxpyDual/nonfinite/mean", gm, sm)
	bitsEqual(t, "AxpyDual/nonfinite/var", gv, sv)

	if saved512 {
		hasAVX, hasAVX512 = true, true
		gm, gv = zero(), zero()
		AxpyDual(math.Inf(-1), math.NaN(), wm, wv, gm, gv)
		bitsEqual(t, "AxpyDual/nonfinite/avx512/mean", gm, sm)
		bitsEqual(t, "AxpyDual/nonfinite/avx512/var", gv, sv)
	}
}
