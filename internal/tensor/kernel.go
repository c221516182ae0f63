package tensor

// Axpy4 performs d_r[j] += x_r * w[j] for r in 0..3 over j in [0, len(w)),
// dispatching exactly as mulBlocked's inner loop does: the AVX/AVX-512
// vector kernel when available, the scalar loop otherwise. Every lane
// performs a separately rounded multiply followed by a separately rounded
// add in ascending j, so accumulating through Axpy4 is bit-identical to the
// blocked matmul's inner loop on every architecture. All four destination
// slices must be at least len(w) long.
//
// Callers replicating mulBlocked must also replicate its zero-skip: the
// blocked kernel does not invoke the inner loop at all when x0 through x3
// are all zero, which is observable in the bits (+0 + −0 differs from an
// untouched accumulator only in edge cases, but "identical" means
// identical).
func Axpy4(x0, x1, x2, x3 float64, w, d0, d1, d2, d3 []float64) {
	if hasAVX {
		axpy4(x0, x1, x2, x3, w, d0, d1, d2, d3)
		return
	}
	b0, b1, b2, b3 := d0[:len(w)], d1[:len(w)], d2[:len(w)], d3[:len(w)]
	for j, wj := range w {
		b0[j] += x0 * wj
		b1[j] += x1 * wj
		b2[j] += x2 * wj
		b3[j] += x3 * wj
	}
}

// AxpyDual performs dm[j] += xm * wm[j] and dv[j] += xv * wv[j] over
// j in [0, len(wm)) in one pass — the single-row counterpart of Axpy4 for
// DualMulInto's dual-moment panels, where wm is a weight row and wv its
// squared pair. mulBlocked's scalar tail has no vector kernel (a lone row
// gives it nothing to amortize a broadcast across), but the fused dual
// layout restores a second stream to overlap, which is what makes batch-1
// moment propagation as fast as a batched row.
//
// Every lane is a separately rounded multiply followed by a separately
// rounded add, so each destination element sees the exact bits of the scalar
// loop. wm and wv must have equal length; dm and dv must be at least that
// long. Callers replicating mulBlocked's tail must still apply its x == 0
// skip per side before calling.
func AxpyDual(xm, xv float64, wm, wv, dm, dv []float64) {
	if hasAVX {
		axpyDual(xm, xv, wm, wv, dm, dv)
		return
	}
	a, b := dm[:len(wm)], dv[:len(wm)]
	for j, wj := range wm {
		a[j] += xm * wj
	}
	for j, wj := range wv {
		b[j] += xv * wj
	}
}

// Axpy4Dual is the 4-row counterpart of AxpyDual: dm_r[j] += x_r * wm[j]
// and dv_r[j] += y_r * wv[j] for r in 0..3 in one pass. DualMulInto's
// register-blocked sweep uses it to load each packed panel
// stripe once for both moments and pay one call per k-step instead of two
// Axpy4 calls. Per-lane operations are the identical separately rounded
// multiply-then-add, so the result bits match two Axpy4 calls exactly.
//
// Callers replicating mulBlocked must apply its all-four-zero skip per side
// BEFORE choosing this kernel: use it only when both the mean and variance
// x-vectors have a nonzero lane, and fall back to single-sided Axpy4 (or
// nothing) otherwise, so a skipped side's accumulators stay untouched.
func Axpy4Dual(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 []float64) {
	if hasAVX {
		axpy4Dual(x0, x1, x2, x3, y0, y1, y2, y3, wm, wv, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3)
		return
	}
	Axpy4(x0, x1, x2, x3, wm, dm0, dm1, dm2, dm3)
	Axpy4(y0, y1, y2, y3, wv, dv0, dv1, dv2, dv3)
}
