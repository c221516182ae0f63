package tensor

import "fmt"

// mulKBlock is the tile height over the shared dimension: how many rows of
// the right-hand matrix stay cache-hot while a panel of left-hand rows is
// streamed against them. 64 rows × 512 cols × 8 B = 256 KB at paper width,
// inside a per-core L2.
const mulKBlock = 64

// MulInto computes dst = m × n into a caller-supplied matrix, the batched
// counterpart of MulVecInto: one blocked matrix–matrix kernel instead of
// m.Rows independent matrix–vector passes. dst must be pre-shaped to
// m.Rows × n.Cols; its contents are overwritten.
//
// The kernel accumulates over the shared dimension in strictly ascending
// order for every output element — the same order as MulVecInto — so each
// dst row is value-identical to m.Row(i) pushed through MulVecInto. That
// property is what lets the batched moment propagation in internal/core
// match the per-sample path exactly.
func (m *Matrix) MulInto(n, dst *Matrix) error {
	if m.Cols != n.Rows {
		return fmt.Errorf("mul-into %dx%d × %dx%d: %w", m.Rows, m.Cols, n.Rows, n.Cols, ErrShape)
	}
	if dst.Rows != m.Rows || dst.Cols != n.Cols {
		return fmt.Errorf("mul-into dst %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, m.Rows, n.Cols, ErrShape)
	}
	mulBlocked(m, n, dst)
	return nil
}

// mulBlocked is the kernel behind MulInto: k-blocked so a tile of n's rows
// is reused across the whole left-hand panel (the cache win over per-sample
// gemv), and 4-row register-blocked so each loaded n element feeds four
// output rows. On amd64 with AVX the inner loop
// dispatches to the axpy4 vector kernel, which performs the identical
// sequence of separately rounded multiplies and adds 4 lanes at a time, and
// the rows past the last multiple of 4 to the single-row axpy kernel. Per
// output element the k-order is ascending, matching MulVecInto.
func mulBlocked(m, n, dst *Matrix) {
	k, cols := m.Cols, n.Cols
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for kb := 0; kb < k; kb += mulKBlock {
		kEnd := kb + mulKBlock
		if kEnd > k {
			kEnd = k
		}
		i := 0
		for ; i+4 <= m.Rows; i += 4 {
			a0 := m.Data[(i+0)*k : (i+1)*k]
			a1 := m.Data[(i+1)*k : (i+2)*k]
			a2 := m.Data[(i+2)*k : (i+3)*k]
			a3 := m.Data[(i+3)*k : (i+4)*k]
			o0 := dst.Data[(i+0)*cols : (i+1)*cols]
			o1 := dst.Data[(i+1)*cols : (i+2)*cols]
			o2 := dst.Data[(i+2)*cols : (i+3)*cols]
			o3 := dst.Data[(i+3)*cols : (i+4)*cols]
			for kk := kb; kk < kEnd; kk++ {
				x0, x1, x2, x3 := a0[kk], a1[kk], a2[kk], a3[kk]
				if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
					continue
				}
				w := n.Data[kk*cols : (kk+1)*cols]
				if hasAVX {
					axpy4(x0, x1, x2, x3, w, o0, o1, o2, o3)
					continue
				}
				b0, b1, b2, b3 := o0[:len(w)], o1[:len(w)], o2[:len(w)], o3[:len(w)]
				for j, wj := range w {
					b0[j] += x0 * wj
					b1[j] += x1 * wj
					b2[j] += x2 * wj
					b3[j] += x3 * wj
				}
			}
		}
		for ; i < m.Rows; i++ {
			ai := m.Data[i*k : (i+1)*k]
			oi := dst.Data[i*cols : (i+1)*cols]
			for kk := kb; kk < kEnd; kk++ {
				x := ai[kk]
				if x == 0 {
					continue
				}
				w := n.Data[kk*cols : (kk+1)*cols]
				if hasAVX {
					axpy(x, w, oi)
					continue
				}
				bi := oi[:len(w)]
				for j, wj := range w {
					bi[j] += x * wj
				}
			}
		}
	}
}
