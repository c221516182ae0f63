package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMulIntoMatchesMulVecRowwise is the bit-level contract of the batched
// kernel: every row of m × n from MulInto equals that row pushed through the
// per-vector MulVecInto — with zero tolerance — across shapes that exercise
// the 4-row register blocking remainder and the k-block remainder.
func TestMulIntoMatchesMulVecRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 5, 3}, {4, 64, 48}, {7, 65, 31}, {64, 256, 256}, {3, 130, 2}, {9, 1, 4},
	}
	for _, s := range shapes {
		rows, k, cols := s[0], s[1], s[2]
		a := NewMatrix(rows, k)
		b := NewMatrix(k, cols)
		a.RandomNormal(rng, 0, 1)
		b.RandomNormal(rng, 0, 1)
		// Sprinkle zeros to exercise the zero-skip paths.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		dst := NewMatrix(rows, cols)
		dst.Fill(99) // MulInto must overwrite, not accumulate
		if err := a.MulInto(b, dst); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := make(Vector, cols)
		for i := 0; i < rows; i++ {
			b.MulVecInto(a.Row(i), want)
			if !dst.Row(i).Equal(want, 0) {
				t.Fatalf("%v: row %d differs from MulVecInto", s, i)
			}
		}
	}
}

func TestMulIntoShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 5) // inner mismatch
	if err := a.MulInto(b, NewMatrix(2, 5)); err == nil {
		t.Error("inner mismatch accepted")
	}
	c := NewMatrix(3, 5)
	if err := a.MulInto(c, NewMatrix(2, 4)); err == nil {
		t.Error("bad dst shape accepted")
	}
}

// TestMulIntoMatchesMul cross-checks against the allocating Mul (ikj serial
// kernel) within floating-point reassociation tolerance.
func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := NewMatrix(33, 70)
	b := NewMatrix(70, 41)
	a.RandomNormal(rng, 0, 1)
	b.RandomNormal(rng, 0, 1)
	want, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	got := NewMatrix(33, 41)
	if err := a.MulInto(b, got); err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got, 1e-12) {
		t.Error("MulInto differs from Mul")
	}
}

// TestMulBlockedVectorScalarBitExact pins the vector axpy kernels to the
// pure-Go inner loop bit for bit (including negative zeros and subnormal
// products): each vector path must be the same sequence of separately
// rounded multiplies and adds, just several lanes at a time. Skipped where
// no vector kernel runs.
func TestMulBlockedVectorScalarBitExact(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX vector kernel on this machine")
	}
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][3]int{{4, 64, 64}, {8, 130, 33}, {6, 7, 5}, {5, 64, 2}, {64, 256, 256}, {4, 16, 13}} {
		rows, k, cols := s[0], s[1], s[2]
		a := NewMatrix(rows, k)
		b := NewMatrix(k, cols)
		a.RandomNormal(rng, 0, 1)
		b.RandomNormal(rng, 0, 1)
		for i := 0; i < len(a.Data); i += 5 {
			a.Data[i] = 0
		}
		for i := 0; i < len(b.Data); i += 9 {
			b.Data[i] = -b.Data[i]
		}
		hasAVX, hasAVX512 = false, false
		sca := NewMatrix(rows, cols)
		if err := a.MulInto(b, sca); err != nil {
			t.Fatal(err)
		}
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
			vec := NewMatrix(rows, cols)
			if err := a.MulInto(b, vec); err != nil {
				t.Fatal(err)
			}
			for i := range vec.Data {
				if math.Float64bits(vec.Data[i]) != math.Float64bits(sca.Data[i]) {
					t.Fatalf("%v %s: element %d: vector %x != scalar %x",
						s, kr.name, i, math.Float64bits(vec.Data[i]), math.Float64bits(sca.Data[i]))
				}
			}
		}
		hasAVX, hasAVX512 = savedAVX, saved512
	}
}

// TestMulBlockedTailRowsBitExact pins the single-row axpy kernel of
// mulBlocked's tail: every row count 1–9 (so 1–3 rows past the 4-row blocks,
// and the one-row product alone), ragged column counts against both vector
// widths, zero and signed-zero left-hand entries and non-finite weights,
// with the vector kernels forced on and off.
func TestMulBlockedTailRowsBitExact(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX vector kernel on this machine")
	}
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	rng := rand.New(rand.NewSource(12))
	for rows := 1; rows <= 9; rows++ {
		for _, kc := range [][2]int{{1, 1}, {3, 7}, {70, 13}, {5, 256}, {130, 17}} {
			k, cols := kc[0], kc[1]
			a := NewMatrix(rows, k)
			b := NewMatrix(k, cols)
			a.RandomNormal(rng, 0, 1)
			b.RandomNormal(rng, 0, 1)
			for i := 0; i < len(a.Data); i += 4 {
				a.Data[i] = 0
			}
			for i := 2; i < len(a.Data); i += 7 {
				a.Data[i] = math.Copysign(0, -1)
			}
			if len(b.Data) > 3 {
				b.Data[1], b.Data[3] = math.Inf(1), math.NaN()
			}
			hasAVX, hasAVX512 = false, false
			sca := NewMatrix(rows, cols)
			if err := a.MulInto(b, sca); err != nil {
				t.Fatal(err)
			}
			for _, zmm := range []bool{false, true} {
				if zmm && !saved512 {
					continue
				}
				hasAVX, hasAVX512 = true, zmm
				vec := NewMatrix(rows, cols)
				if err := a.MulInto(b, vec); err != nil {
					t.Fatal(err)
				}
				for i := range vec.Data {
					if math.Float64bits(vec.Data[i]) != math.Float64bits(sca.Data[i]) {
						t.Fatalf("%d×%d×%d avx512=%v: element %d: vector %x != scalar %x",
							rows, k, cols, zmm, i, math.Float64bits(vec.Data[i]), math.Float64bits(sca.Data[i]))
					}
				}
			}
		}
	}
}
