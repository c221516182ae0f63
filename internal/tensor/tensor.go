// Package tensor implements dense float64 vector and matrix primitives used
// throughout the ApDeepSense reproduction.
//
// The package is intentionally small and allocation-conscious: every hot-path
// routine has an in-place variant that writes into a caller-supplied
// destination, and matrix multiplication has both a serial and a
// goroutine-parallel implementation. Only the standard library is used.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Vector is a dense one-dimensional array of float64 values.
type Vector []float64

// NewVector returns a zero-initialized vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add returns v + w element-wise.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("add %d vs %d: %w", len(v), len(w), ErrShape)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out, nil
}

// Sub returns v - w element-wise.
func (v Vector) Sub(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("sub %d vs %d: %w", len(v), len(w), ErrShape)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out, nil
}

// Mul returns the element-wise (Hadamard) product v ⊙ w.
func (v Vector) Mul(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("mul %d vs %d: %w", len(v), len(w), ErrShape)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * w[i]
	}
	return out, nil
}

// Scale returns c * v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AddInPlace sets v = v + w. It reports an error on length mismatch.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("add-in-place %d vs %d: %w", len(v), len(w), ErrShape)
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d vs %d: %w", len(v), len(w), ErrShape)
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s, nil
}

// Sum returns the sum of all elements.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index. It returns (-Inf, -1) for an
// empty vector.
func (v Vector) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Min returns the minimum element and its index. It returns (+Inf, -1) for an
// empty vector.
func (v Vector) Min() (float64, int) {
	best, idx := math.Inf(1), -1
	for i, x := range v {
		if x < best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AbsSum returns the L1 norm of v.
func (v Vector) AbsSum() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Apply returns a new vector whose elements are f applied to each element of v.
func (v Vector) Apply(f func(float64) float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = f(x)
	}
	return out
}

// ApplyInPlace applies f to each element of v in place.
func (v Vector) ApplyInPlace(f func(float64) float64) {
	for i, x := range v {
		v[i] = f(x)
	}
}

// Equal reports whether v and w have the same length and all elements within
// tol of each other.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element of v is NaN or infinite.
func (v Vector) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order; element (i, j) lives at
	// Data[i*Cols+j].
	Data []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The input data
// is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("from-rows: empty input: %w", ErrShape)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("from-rows: row %d has %d cols, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores x at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a vector sharing the matrix's backing storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// TopRows returns the first n rows of m as a matrix sharing m's storage.
func (m *Matrix) TopRows(n int) *Matrix {
	return &Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element of m to c.
func (m *Matrix) Fill(c float64) {
	for i := range m.Data {
		m.Data[i] = c
	}
}

// Apply returns a new matrix whose elements are f applied element-wise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = f(x)
	}
	return out
}

// Square returns the element-wise square m ⊙ m, written W² in the paper.
func (m *Matrix) Square() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = x * x
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[base+j]
		}
	}
	return out
}

// AddInPlace sets m = m + n.
func (m *Matrix) AddInPlace(n *Matrix) error {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return fmt.Errorf("matrix add %dx%d vs %dx%d: %w", m.Rows, m.Cols, n.Rows, n.Cols, ErrShape)
	}
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
	return nil
}

// ScaleInPlace sets m = c * m.
func (m *Matrix) ScaleInPlace(c float64) {
	for i := range m.Data {
		m.Data[i] *= c
	}
}

// Equal reports whether m and n share shape and all elements agree within tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element of m is NaN or infinite.
func (m *Matrix) HasNaN() bool {
	for _, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// MulVec computes xᵀ M for a row vector x of length m.Rows, returning a
// vector of length m.Cols. This is the layer-wise orientation used by the
// paper: y = x W.
func (m *Matrix) MulVec(x Vector) (Vector, error) {
	if len(x) != m.Rows {
		return nil, fmt.Errorf("mulvec: x has %d elems, matrix has %d rows: %w", len(x), m.Rows, ErrShape)
	}
	out := make(Vector, m.Cols)
	m.MulVecInto(x, out)
	return out, nil
}

// MulVecInto computes xᵀ M into dst. dst must have length m.Cols and x must
// have length m.Rows; the caller guarantees shapes (hot path, no error
// return). Accumulating row-by-row keeps memory access sequential in the
// row-major layout.
func (m *Matrix) MulVecInto(x Vector, dst Vector) {
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += xi * w
		}
	}
}

// MulVecT computes M x for a column vector x of length m.Cols, returning a
// vector of length m.Rows. This is the orientation used by backpropagation:
// dL/dx = W (dL/dy).
func (m *Matrix) MulVecT(x Vector) (Vector, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("mulvecT: x has %d elems, matrix has %d cols: %w", len(x), m.Cols, ErrShape)
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Mul returns the matrix product m × n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("matmul %dx%d × %dx%d: %w", m.Rows, m.Cols, n.Rows, n.Cols, ErrShape)
	}
	out := NewMatrix(m.Rows, n.Cols)
	mulSerial(m, n, out)
	return out, nil
}

// mulSerial computes out = m × n with an ikj loop order (cache-friendly for
// row-major storage).
func mulSerial(m, n, out *Matrix) {
	for i := 0; i < m.Rows; i++ {
		outRow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			nRow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, b := range nRow {
				outRow[j] += a * b
			}
		}
	}
}

// OuterAddInPlace accumulates the outer product x yᵀ into m:
// m[i][j] += x[i] * y[j]. Used by backprop for weight gradients.
func (m *Matrix) OuterAddInPlace(x, y Vector) error {
	if len(x) != m.Rows || len(y) != m.Cols {
		return fmt.Errorf("outer %dx%d into %dx%d: %w", len(x), len(y), m.Rows, m.Cols, ErrShape)
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += xi * yj
		}
	}
	return nil
}
