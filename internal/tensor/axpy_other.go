//go:build !amd64

package tensor

// hasAVX is always false off amd64; mulBlocked uses the pure-Go inner loop.
// It is a var for symmetry with the amd64 build, where tests toggle it.
var hasAVX = false

// hasAVX512 mirrors the amd64 build for the same reason.
var hasAVX512 = false

// axpy4 is never reached when hasAVX is false; the stub keeps the
// cross-platform build honest.
func axpy4(x0, x1, x2, x3 float64, w, d0, d1, d2, d3 []float64) {
	panic("tensor: vector axpy kernel unavailable on this architecture")
}

// axpy is never reached when hasAVX is false; see axpy4.
func axpy(x float64, w, d []float64) {
	panic("tensor: vector axpy kernel unavailable on this architecture")
}

// axpyDual is never reached when hasAVX is false; see axpy4.
func axpyDual(xm, xv float64, wm, wv, dm, dv []float64) {
	panic("tensor: vector axpy kernel unavailable on this architecture")
}

// axpy4Dual is never reached when hasAVX is false; see axpy4.
func axpy4Dual(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv []float64, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 []float64) {
	panic("tensor: vector axpy kernel unavailable on this architecture")
}
