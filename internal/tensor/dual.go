package tensor

// dualMinWidth is the narrowest output row DualMulInto hands to the
// single-row vector kernel. Below it (in practice the one-output last layer
// of a regression net) the call costs more than the inline scalar loops it
// replaces; from four outputs up the kernel wins. Both produce the same bits.
const dualMinWidth = 4

// DualPanel holds a weight matrix W and its element-wise square W² packed
// into one interleaved buffer: for each row kk of the shared dimension, the
// Out weights followed by their squares. The moment propagation multiplies
// the mean panel by W and the variance panel by W² (the paper's eqs. 9–10);
// with the packed layout both products stream one contiguous 2·Out stripe
// per k-step, so both moments' weights arrive on the same cache lines.
type DualPanel struct {
	// In and Out are W's row and column counts.
	In, Out int
	data    []float64
}

// PackDual builds w's dual panel. Each square is the same x*x that
// Matrix.Square computes, so multiplying through the panel reads exactly
// the values two MulInto calls against w and w.Square() would.
func PackDual(w *Matrix) *DualPanel {
	nIn, nOut := w.Rows, w.Cols
	data := make([]float64, 2*nIn*nOut)
	for kk := 0; kk < nIn; kk++ {
		row := w.Data[kk*nOut : (kk+1)*nOut]
		dst := data[kk*2*nOut:]
		for j, wj := range row {
			dst[j] = wj
			dst[nOut+j] = wj * wj
		}
	}
	return &DualPanel{In: nIn, Out: nOut, data: data}
}

// DualMulInto computes outMu = mu × W and outVa = va × W² in one pass over
// the packed panel, for row-major rows×In inputs and rows×Out outputs (the
// caller guarantees the lengths; outputs are overwritten). It replicates
// mulBlocked's structure exactly: k-blocked in mulKBlock tiles, 4-row
// register blocking with the all-four-zero skip, and a tail loop with the
// per-row x == 0 skip, each applied per side. Interleaving the two products
// at the k level leaves every output element's accumulation in the same
// ascending-k order as two separate MulInto calls — mean and variance
// elements are disjoint accumulators, so their interleaving is
// bit-invisible — and every element therefore also matches MulVecInto.
func DualMulInto(p *DualPanel, mu, va, outMu, outVa []float64, rows int) {
	nIn, nOut := p.In, p.Out
	panel := p.data
	for i := range outMu {
		outMu[i] = 0
	}
	for i := range outVa {
		outVa[i] = 0
	}
	stride := 2 * nOut
	for kb := 0; kb < nIn; kb += mulKBlock {
		kEnd := kb + mulKBlock
		if kEnd > nIn {
			kEnd = nIn
		}
		i := 0
		for ; i+4 <= rows; i += 4 {
			m0 := mu[(i+0)*nIn : (i+1)*nIn]
			m1 := mu[(i+1)*nIn : (i+2)*nIn]
			m2 := mu[(i+2)*nIn : (i+3)*nIn]
			m3 := mu[(i+3)*nIn : (i+4)*nIn]
			v0 := va[(i+0)*nIn : (i+1)*nIn]
			v1 := va[(i+1)*nIn : (i+2)*nIn]
			v2 := va[(i+2)*nIn : (i+3)*nIn]
			v3 := va[(i+3)*nIn : (i+4)*nIn]
			om0 := outMu[(i+0)*nOut : (i+1)*nOut]
			om1 := outMu[(i+1)*nOut : (i+2)*nOut]
			om2 := outMu[(i+2)*nOut : (i+3)*nOut]
			om3 := outMu[(i+3)*nOut : (i+4)*nOut]
			ov0 := outVa[(i+0)*nOut : (i+1)*nOut]
			ov1 := outVa[(i+1)*nOut : (i+2)*nOut]
			ov2 := outVa[(i+2)*nOut : (i+3)*nOut]
			ov3 := outVa[(i+3)*nOut : (i+4)*nOut]
			for kk := kb; kk < kEnd; kk++ {
				base := kk * stride
				x0, x1, x2, x3 := m0[kk], m1[kk], m2[kk], m3[kk]
				y0, y1, y2, y3 := v0[kk], v1[kk], v2[kk], v3[kk]
				// The all-four-zero skips replicate mulBlocked exactly, per
				// side; the fused kernel runs only when both sides are live
				// (the common case), loading the panel stripe once for both
				// moments.
				mLive := x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0
				vLive := y0 != 0 || y1 != 0 || y2 != 0 || y3 != 0
				switch {
				case mLive && vLive:
					Axpy4Dual(x0, x1, x2, x3, y0, y1, y2, y3,
						panel[base:base+nOut], panel[base+nOut:base+stride],
						om0, om1, om2, om3, ov0, ov1, ov2, ov3)
				case mLive:
					Axpy4(x0, x1, x2, x3, panel[base:base+nOut], om0, om1, om2, om3)
				case vLive:
					Axpy4(y0, y1, y2, y3, panel[base+nOut:base+stride], ov0, ov1, ov2, ov3)
				}
			}
		}
		for ; i < rows; i++ {
			dualRow(panel, mu[i*nIn:(i+1)*nIn], va[i*nIn:(i+1)*nIn],
				outMu[i*nOut:(i+1)*nOut], outVa[i*nOut:(i+1)*nOut], kb, kEnd)
		}
	}
}

// dualRow is DualMulInto's tail for one row over the k-block [kb, kEnd),
// with mulBlocked's per-row x == 0 skip applied per side. When both moments
// are live (the common case) and the row is wide enough to amortize the
// call, the dual kernel runs mean and variance in one vector pass —
// mulBlocked's tail has no single-row vector kernel, so this is where
// batch-1 propagation gains most from the packed layout. It is a separate
// function so its scalar loops keep their counters in registers.
func dualRow(panel, mi, vi, omi, ovi []float64, kb, kEnd int) {
	nOut := len(omi)
	stride := 2 * nOut
	for kk := kb; kk < kEnd; kk++ {
		base := kk * stride
		xm, xv := mi[kk], vi[kk]
		if xm != 0 && xv != 0 && nOut >= dualMinWidth {
			AxpyDual(xm, xv, panel[base:base+nOut], panel[base+nOut:base+stride], omi, ovi)
			continue
		}
		if xm != 0 {
			w := panel[base : base+nOut]
			o := omi[:len(w)]
			for j, wj := range w {
				o[j] += xm * wj
			}
		}
		if xv != 0 {
			w := panel[base+nOut : base+stride]
			o := ovi[:len(w)]
			for j, wj := range w {
				o[j] += xv * wj
			}
		}
	}
}
