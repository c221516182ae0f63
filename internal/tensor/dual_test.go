package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestDualMulIntoMatchesMulInto pins the packed dual-panel product to two
// separate MulInto calls against W and W², bit for bit, for every kernel
// variant over the ragged shape grid and stress-valued inputs (exact zeros
// on either side exercise the per-side zero-skips; squares of the huge
// weights overflow to Inf, so a skipped zero is visible as a missing NaN).
// The extra shapes put single-row and 2-row tails on outputs wide enough
// for the single-row vector kernel.
func TestDualMulIntoMatchesMulInto(t *testing.T) {
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()

	shapes := append([]struct{ r, k, c int }{{1, 130, 33}, {6, 70, 40}}, raggedShapes...)
	rng := rand.New(rand.NewSource(43))
	for _, sh := range shapes {
		w := NewMatrix(sh.k, sh.c)
		mu := NewMatrix(sh.r, sh.k)
		va := NewMatrix(sh.r, sh.k)
		fillStress(w, rng)
		fillStress(mu, rng)
		fillStress(va, rng)
		panel := PackDual(w)
		if panel.In != sh.k || panel.Out != sh.c {
			t.Fatalf("panel %dx%d, want %dx%d", panel.In, panel.Out, sh.k, sh.c)
		}
		for _, kr := range kernelVariants() {
			hasAVX, hasAVX512 = kr.avx, kr.zmm
			wantMu, wantVa := NewMatrix(sh.r, sh.c), NewMatrix(sh.r, sh.c)
			if err := mu.MulInto(w, wantMu); err != nil {
				t.Fatal(err)
			}
			if err := va.MulInto(w.Square(), wantVa); err != nil {
				t.Fatal(err)
			}
			gotMu, gotVa := make([]float64, sh.r*sh.c), make([]float64, sh.r*sh.c)
			for i := range gotMu {
				gotMu[i], gotVa[i] = math.NaN(), math.NaN() // must be overwritten
			}
			DualMulInto(panel, mu.Data, va.Data, gotMu, gotVa, sh.r)
			for i := range gotMu {
				if math.Float64bits(gotMu[i]) != math.Float64bits(wantMu.Data[i]) ||
					math.Float64bits(gotVa[i]) != math.Float64bits(wantVa.Data[i]) {
					t.Fatalf("%s %dx%dx%d elem %d: dual (%v, %v), MulInto (%v, %v)",
						kr.name, sh.r, sh.k, sh.c, i, gotMu[i], gotVa[i], wantMu.Data[i], wantVa.Data[i])
				}
			}
		}
	}
}
