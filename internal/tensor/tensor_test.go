package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorAddSubMul(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	sum, err := v.Add(w)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !sum.Equal(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v, want [5 7 9]", sum)
	}

	diff, err := w.Sub(v)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if !diff.Equal(Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v, want [3 3 3]", diff)
	}

	prod, err := v.Mul(w)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !prod.Equal(Vector{4, 10, 18}, 0) {
		t.Errorf("Mul = %v, want [4 10 18]", prod)
	}
}

func TestVectorShapeErrors(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{1, 2, 3}
	if _, err := v.Add(w); !errors.Is(err, ErrShape) {
		t.Errorf("Add mismatched: err = %v, want ErrShape", err)
	}
	if _, err := v.Sub(w); !errors.Is(err, ErrShape) {
		t.Errorf("Sub mismatched: err = %v, want ErrShape", err)
	}
	if _, err := v.Mul(w); !errors.Is(err, ErrShape) {
		t.Errorf("Mul mismatched: err = %v, want ErrShape", err)
	}
	if _, err := v.Dot(w); !errors.Is(err, ErrShape) {
		t.Errorf("Dot mismatched: err = %v, want ErrShape", err)
	}
	if err := v.AddInPlace(w); !errors.Is(err, ErrShape) {
		t.Errorf("AddInPlace mismatched: err = %v, want ErrShape", err)
	}
}

func TestVectorDotSumMean(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	w := Vector{1, 1, 1, 1}
	d, err := v.Dot(w)
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if d != 10 {
		t.Errorf("Dot = %v, want 10", d)
	}
	if v.Sum() != 10 {
		t.Errorf("Sum = %v, want 10", v.Sum())
	}
	if v.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", v.Mean())
	}
	var empty Vector
	if empty.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", empty.Mean())
	}
}

func TestVectorMaxMin(t *testing.T) {
	v := Vector{3, -1, 7, 7, 0}
	if x, i := v.Max(); x != 7 || i != 2 {
		t.Errorf("Max = (%v, %d), want (7, 2)", x, i)
	}
	if x, i := v.Min(); x != -1 || i != 1 {
		t.Errorf("Min = (%v, %d), want (-1, 1)", x, i)
	}
	var empty Vector
	if x, i := empty.Max(); !math.IsInf(x, -1) || i != -1 {
		t.Errorf("empty Max = (%v, %d), want (-Inf, -1)", x, i)
	}
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.AbsSum(); got != 7 {
		t.Errorf("AbsSum = %v, want 7", got)
	}
}

func TestVectorApplyCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 100
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	sq := v.Apply(func(x float64) float64 { return x * x })
	if !sq.Equal(Vector{1, 4, 9}, 0) {
		t.Errorf("Apply = %v, want [1 4 9]", sq)
	}
	v.ApplyInPlace(func(x float64) float64 { return -x })
	if !v.Equal(Vector{-1, -2, -3}, 0) {
		t.Errorf("ApplyInPlace = %v, want [-1 -2 -3]", v)
	}
}

func TestVectorHasNaN(t *testing.T) {
	if (Vector{1, 2, 3}).HasNaN() {
		t.Error("finite vector reported NaN")
	}
	if !(Vector{1, math.NaN()}).HasNaN() {
		t.Error("NaN vector not reported")
	}
	if !(Vector{1, math.Inf(1)}).HasNaN() {
		t.Error("Inf vector not reported")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Errorf("At/Set round-trip failed: %+v", m)
	}
	row := m.Row(1)
	if !row.Equal(Vector{0, 0, 5}, 0) {
		t.Errorf("Row(1) = %v, want [0 0 5]", row)
	}
	col := m.Col(2)
	if !col.Equal(Vector{0, 5}, 0) {
		t.Errorf("Col(2) = %v, want [0 5]", col)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged FromRows err = %v, want ErrShape", err)
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Errorf("empty FromRows err = %v, want ErrShape", err)
	}
}

func TestMatrixTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	want, _ := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !tr.Equal(want, 0) {
		t.Errorf("Transpose = %+v, want %+v", tr, want)
	}
	back := tr.Transpose()
	if !back.Equal(m, 0) {
		t.Error("double transpose is not identity")
	}
}

func TestMatrixSquare(t *testing.T) {
	m, _ := FromRows([][]float64{{-2, 3}})
	sq := m.Square()
	if sq.At(0, 0) != 4 || sq.At(0, 1) != 9 {
		t.Errorf("Square = %+v, want [[4 9]]", sq)
	}
}

func TestMulVec(t *testing.T) {
	// y = x W with W 3x2.
	w, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := Vector{1, 0, -1}
	y, err := w.MulVec(x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if !y.Equal(Vector{-4, -4}, 1e-12) {
		t.Errorf("MulVec = %v, want [-4 -4]", y)
	}
	if _, err := w.MulVec(Vector{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec shape err = %v, want ErrShape", err)
	}
}

func TestMulVecT(t *testing.T) {
	w, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := Vector{1, 1}
	out, err := w.MulVecT(g)
	if err != nil {
		t.Fatalf("MulVecT: %v", err)
	}
	if !out.Equal(Vector{3, 7, 11}, 1e-12) {
		t.Errorf("MulVecT = %v, want [3 7 11]", out)
	}
	if _, err := w.MulVecT(Vector{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVecT shape err = %v, want ErrShape", err)
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Errorf("Mul = %+v, want %+v", c, want)
	}
	if _, err := a.Mul(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("Mul shape err = %v, want ErrShape", err)
	}
}

func TestOuterAddInPlace(t *testing.T) {
	m := NewMatrix(2, 3)
	if err := m.OuterAddInPlace(Vector{1, 2}, Vector{1, 0, -1}); err != nil {
		t.Fatalf("OuterAddInPlace: %v", err)
	}
	want, _ := FromRows([][]float64{{1, 0, -1}, {2, 0, -2}})
	if !m.Equal(want, 0) {
		t.Errorf("Outer = %+v, want %+v", m, want)
	}
	if err := m.OuterAddInPlace(Vector{1}, Vector{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Errorf("Outer shape err = %v, want ErrShape", err)
	}
}

func TestMatrixAddScaleClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	n, _ := FromRows([][]float64{{10, 20}})
	if err := m.AddInPlace(n); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	if m.At(0, 1) != 22 {
		t.Errorf("AddInPlace: got %v, want 22", m.At(0, 1))
	}
	m.ScaleInPlace(0.5)
	if m.At(0, 0) != 5.5 {
		t.Errorf("ScaleInPlace: got %v, want 5.5", m.At(0, 0))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
	if err := m.AddInPlace(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("AddInPlace shape err = %v, want ErrShape", err)
	}
}

func TestMatrixHasNaN(t *testing.T) {
	m := NewMatrix(2, 2)
	if m.HasNaN() {
		t.Error("zero matrix reported NaN")
	}
	m.Set(1, 1, math.NaN())
	if !m.HasNaN() {
		t.Error("NaN matrix not reported")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMatrix(200, 100)

	m.GlorotUniform(rng)
	limit := math.Sqrt(6.0 / 300.0)
	for _, x := range m.Data {
		if x < -limit || x > limit {
			t.Fatalf("Glorot value %v outside ±%v", x, limit)
		}
	}

	m.HeNormal(rng)
	var mean, varsum float64
	for _, x := range m.Data {
		mean += x
	}
	mean /= float64(len(m.Data))
	for _, x := range m.Data {
		varsum += (x - mean) * (x - mean)
	}
	varsum /= float64(len(m.Data))
	wantVar := 2.0 / 200.0
	if math.Abs(varsum-wantVar)/wantVar > 0.15 {
		t.Errorf("He variance = %v, want ≈ %v", varsum, wantVar)
	}

	m.RandomUniform(rng, 2, 3)
	for _, x := range m.Data {
		if x < 2 || x >= 3 {
			t.Fatalf("uniform value %v outside [2,3)", x)
		}
	}
}

// Property: matmul distributes over vector multiplication, i.e. for any
// matrices the two MulVec paths (x·(AB) and (x·A)·B) agree.
func TestPropertyMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(8), 2+rng.Intn(8), 2+rng.Intn(8)
		a := NewMatrix(m, k)
		b := NewMatrix(k, n)
		a.RandomNormal(rng, 0, 1)
		b.RandomNormal(rng, 0, 1)
		x := make(Vector, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		y1, err := ab.MulVec(x)
		if err != nil {
			return false
		}
		xa, err := a.MulVec(x)
		if err != nil {
			return false
		}
		y2, err := b.MulVec(xa)
		if err != nil {
			return false
		}
		return y1.Equal(y2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: transpose swaps MulVec and MulVecT.
func TestPropertyTransposeDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		m := NewMatrix(r, c)
		m.RandomNormal(rng, 0, 1)
		x := make(Vector, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1, err := m.MulVec(x)
		if err != nil {
			return false
		}
		y2, err := m.Transpose().MulVecT(x)
		if err != nil {
			return false
		}
		return y1.Equal(y2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorFillScaleApply(t *testing.T) {
	v := NewVector(3)
	if len(v) != 3 || v[0] != 0 {
		t.Fatalf("NewVector = %v", v)
	}
	v.Fill(2)
	if v[2] != 2 {
		t.Errorf("Fill: %v", v)
	}
	s := v.Scale(1.5)
	if s[0] != 3 || v[0] != 2 {
		t.Errorf("Scale = %v (orig %v)", s, v)
	}
	// Vector Equal rejects length mismatch.
	if v.Equal(Vector{2, 2}, 0) {
		t.Error("Equal accepted length mismatch")
	}
}

func TestMatrixFillApplyEqual(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Errorf("Fill: %v", m.Data)
	}
	sq := m.Apply(func(x float64) float64 { return x * x })
	if sq.At(0, 0) != 9 || m.At(0, 0) != 3 {
		t.Error("Apply mutated or miscomputed")
	}
	if m.Equal(NewMatrix(3, 2), 0) {
		t.Error("Equal accepted shape mismatch")
	}
}

func TestVectorAddInPlace(t *testing.T) {
	v := Vector{1, 2}
	if err := v.AddInPlace(Vector{10, 20}); err != nil {
		t.Fatal(err)
	}
	if v[1] != 22 {
		t.Errorf("AddInPlace: %v", v)
	}
}
