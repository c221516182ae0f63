//go:build amd64

package tensor

// hasAVX gates the vector axpy kernel behind runtime CPU detection: the
// AVX instruction set must be present and the OS must have enabled YMM
// state (OSXSAVE + XCR0). When false, mulBlocked falls back to the pure-Go
// inner loop. It is a var (not const) so tests can force the scalar path.
var hasAVX = detectAVX()

// hasAVX512 additionally requires AVX-512F and OS support for the opmask
// and ZMM register state; the 8-wide kernel then replaces the 4-wide one.
var hasAVX512 = detectAVX512()

func detectAVX() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	// Bits 1 and 2: XMM and YMM register state saved/restored by the OS.
	return xcr0&0x6 == 0x6
}

func detectAVX512() bool {
	if !hasAVX {
		return false
	}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512fBit = 1 << 16
	if ebx&avx512fBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	// Bits 5–7: opmask, upper-ZMM, and high-16-ZMM state enabled by the OS.
	return xcr0&0xe0 == 0xe0
}

// cpuid and xgetbv are implemented in axpy_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpy4AVX is the vector inner kernel of mulBlocked, implemented in
// axpy_amd64.s: d_r[j] += x_r * w[j] for r in 0..3 and j in 0..n-1. The
// scalars are passed by value so nothing escapes to the heap per call.
//
// It deliberately uses separate VMULPD and VADDPD instructions rather than
// fused multiply-add: each SIMD lane then performs exactly the rounded
// multiply followed by the rounded add that the scalar fallback performs,
// so results are bit-identical across paths. FMA's single rounding would
// break the batch-vs-sequential exactness contract in internal/core.
func axpy4AVX(x0, x1, x2, x3 float64, w *float64, n int, d0, d1, d2, d3 *float64)

// axpy4AVX512 is the same kernel widened to 8 doubles per step on ZMM
// registers. Per-lane operations are identical IEEE multiplies and adds, so
// results remain bit-identical to both the 4-wide and scalar paths.
func axpy4AVX512(x0, x1, x2, x3 float64, w *float64, n int, d0, d1, d2, d3 *float64)

// axpy4 wraps the assembly kernels with slice bookkeeping and width
// dispatch. All four destination rows must be at least len(w) long.
func axpy4(x0, x1, x2, x3 float64, w, d0, d1, d2, d3 []float64) {
	if len(w) == 0 {
		return
	}
	if hasAVX512 {
		axpy4AVX512(x0, x1, x2, x3, &w[0], len(w), &d0[0], &d1[0], &d2[0], &d3[0])
		return
	}
	axpy4AVX(x0, x1, x2, x3, &w[0], len(w), &d0[0], &d1[0], &d2[0], &d3[0])
}

// axpyDualAVX is the single-row dual-moment kernel in axpy_amd64.s:
// dm[j] += xm * wm[j] and dv[j] += xv * wv[j] for j in 0..n-1 in one vector
// pass. Like axpy4AVX it uses separate VMULPD and VADDPD so every lane is
// the exact rounded multiply-then-add of the scalar loop — DualMulInto
// relies on that for its bit-identity contract on tail rows.
func axpyDualAVX(xm, xv float64, wm, wv *float64, n int, dm, dv *float64)

// axpyDualAVX512 is the same kernel widened to 8 doubles per step.
func axpyDualAVX512(xm, xv float64, wm, wv *float64, n int, dm, dv *float64)

// axpyDual wraps the dual-moment assembly kernels with slice bookkeeping and
// width dispatch. wm and wv must have equal length; dm and dv must be at
// least that long.
func axpyDual(xm, xv float64, wm, wv, dm, dv []float64) {
	if len(wm) == 0 {
		return
	}
	if hasAVX512 {
		axpyDualAVX512(xm, xv, &wm[0], &wv[0], len(wm), &dm[0], &dv[0])
		return
	}
	axpyDualAVX(xm, xv, &wm[0], &wv[0], len(wm), &dm[0], &dv[0])
}

// axpy4DualAVX is the 4-row dual-moment kernel in axpy_amd64.s:
// dm_r[j] += x_r * wm[j] and dv_r[j] += y_r * wv[j] for r in 0..3 in one
// pass, loading each panel stripe once for both moments. Same separately
// rounded multiply-then-add per lane as every other kernel here.
func axpy4DualAVX(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv *float64, n int, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 *float64)

// axpy4DualAVX512 is the same kernel widened to 8 doubles per step.
func axpy4DualAVX512(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv *float64, n int, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 *float64)

// axpy4Dual wraps the 4-row dual-moment assembly kernels with slice
// bookkeeping and width dispatch.
func axpy4Dual(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv []float64, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 []float64) {
	if len(wm) == 0 {
		return
	}
	if hasAVX512 {
		axpy4DualAVX512(x0, x1, x2, x3, y0, y1, y2, y3, &wm[0], &wv[0], len(wm),
			&dm0[0], &dm1[0], &dm2[0], &dm3[0], &dv0[0], &dv1[0], &dv2[0], &dv3[0])
		return
	}
	axpy4DualAVX(x0, x1, x2, x3, y0, y1, y2, y3, &wm[0], &wv[0], len(wm),
		&dm0[0], &dm1[0], &dm2[0], &dm3[0], &dv0[0], &dv1[0], &dv2[0], &dv3[0])
}
