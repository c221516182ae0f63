package rnn

import (
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// cellSpec is a cell's structure: its kind, recurrent keep probability,
// gate stacks (as the moment engine groups them) and readout. Each model's
// spec method is the one place its gates are written; the moment engine,
// the float step, BPTT and the trainer are all built from it. The gates
// alias the model's weights, so a spec sees every update.
type cellSpec struct {
	kind   cellKind
	keep   float64
	stacks [][]gate
	wo     *tensor.Matrix
	bo     tensor.Vector
}

func (s *cellSpec) newProp() (*prop, error) {
	return newProp(s.kind, s.keep, s.wo, s.bo, s.stacks...)
}

func (s *cellSpec) in() int { return s.stacks[0][0].wx.Rows }
func (s *cellSpec) n() int  { return s.wo.Rows }

// offset is stack si's first unit in a frame's k·n gate buffers.
func (s *cellSpec) offset(si int) int {
	off := 0
	for _, st := range s.stacks[:si] {
		off += len(st) * s.n()
	}
	return off
}

// zeros returns a spec of the same shape whose weights are all zero: the
// gradient accumulator BPTT adds into.
func (s *cellSpec) zeros() *cellSpec {
	n := s.n()
	z := &cellSpec{kind: s.kind, keep: s.keep,
		wo: tensor.NewMatrix(n, s.wo.Cols), bo: tensor.NewVector(len(s.bo))}
	for _, st := range s.stacks {
		gs := make([]gate, len(st))
		for i, g := range st {
			gs[i] = gate{tensor.NewMatrix(g.wx.Rows, n), tensor.NewMatrix(n, n), tensor.NewVector(n), g.act}
		}
		z.stacks = append(z.stacks, gs)
	}
	return z
}

// params lists every parameter in the order the SGD step and its clip norm
// visit them: each gate's Wx and Wh, every bias, then the readout.
func (s *cellSpec) params() [][]float64 {
	var ws, bs [][]float64
	for _, st := range s.stacks {
		for _, g := range st {
			ws = append(ws, g.wx.Data, g.wh.Data)
			bs = append(bs, g.b)
		}
	}
	return append(append(ws, bs...), s.wo.Data, s.bo)
}

// frame is one timestep's float state: each stack's recurrent input (ĥ,
// then r⊙ĥ for the GRU's candidate), every gate's pre-activation and output
// in stack order, and the state after the step (with c and tanh(c) for the
// LSTM).
type frame struct {
	in       [][]float64
	pre, y   []float64
	h, c, tc []float64
}

// newFrames returns count zeroed frames carved from one allocation.
func (s *cellSpec) newFrames(count int) []frame {
	n, k := s.n(), s.offset(len(s.stacks))
	per := len(s.stacks)*n + 2*k + 3*n
	buf := make([]float64, count*per)
	next := func(size int) []float64 {
		v := buf[:size:size]
		buf = buf[size:]
		return v
	}
	fs := make([]frame, count)
	for i := range fs {
		f := &fs[i]
		f.in = make([][]float64, len(s.stacks))
		for si := range f.in {
			f.in[si] = next(n)
		}
		f.pre, f.y = next(k), next(k)
		f.h, f.c, f.tc = next(n), next(n), next(n)
	}
	return fs
}

// mask fills m with the per-unit multiplier of the recurrent state: keep
// itself for the weight-scaled pass (rng nil), otherwise one
// Bernoulli(keep) 0/1 draw per unit — none at keep 1 — which variational
// recurrent dropout reuses at every step of the sequence.
func (s *cellSpec) mask(rng *rand.Rand, m []float64) {
	for i := range m {
		switch {
		case rng == nil:
			m[i] = s.keep
		case s.keep >= 1 || rng.Float64() < s.keep:
			m[i] = 1
		default:
			m[i] = 0
		}
	}
}

// forward validates xs and runs the float recurrence over it — the
// weight-scaled pass when rng is nil, else one stochastic pass under a mask
// drawn from rng — returning the readout of the final state.
func (s *cellSpec) forward(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	if err := checkSeq(xs, s.in()); err != nil {
		return nil, err
	}
	m, tmp := make([]float64, s.n()), make([]float64, s.n())
	s.mask(rng, m)
	f := &s.newFrames(1)[0]
	for _, x := range xs {
		s.step(x, m, f, f, tmp)
	}
	return readout(s.wo, s.bo, f.h), nil
}

// step advances the float recurrence one timestep from prev into cur (which
// may be the same frame): ĥ = h⊙m, each stack's gates, and the kind's
// combine into the new state. tmp is n scratch.
func (s *cellSpec) step(x, m []float64, prev, cur *frame, tmp []float64) {
	n := s.n()
	d := cur.in[0]
	for j := range d {
		d[j] = prev.h[j] * m[j]
	}
	s.gates(0, x, cur, tmp)
	switch s.kind {
	case kindElman:
		copy(cur.h, cur.y)
	case kindGRU:
		// h ← u⊙h + (1−u)⊙c, the candidate c reading r⊙ĥ.
		r, u, c := cur.y[:n], cur.y[n:2*n], cur.y[2*n:]
		rd := cur.in[1]
		for j := range rd {
			rd[j] = r[j] * d[j]
		}
		s.gates(1, x, cur, tmp)
		for j := range cur.h {
			cur.h[j] = u[j]*prev.h[j] + (1-u[j])*c[j]
		}
	case kindLSTM:
		// c ← f⊙c + i⊙g, then h = o ⊙ tanh(c).
		i, f, o, g := cur.y[:n], cur.y[n:2*n], cur.y[2*n:3*n], cur.y[3*n:]
		for j := range cur.h {
			cur.c[j] = f[j]*prev.c[j] + i[j]*g[j]
			cur.tc[j] = nn.ActTanh.Apply(cur.c[j])
			cur.h[j] = o[j] * cur.tc[j]
		}
	}
}

// gates runs stack si on its recurrent input f.in[si]: per gate
// pre = x·Wx + in·Wh + b and y = act(pre).
func (s *cellSpec) gates(si int, x []float64, f *frame, tmp []float64) {
	n, off := s.n(), s.offset(si)
	for gi, g := range s.stacks[si] {
		pre, y := f.pre[off+gi*n:off+(gi+1)*n], f.y[off+gi*n:off+(gi+1)*n]
		g.wx.MulVecInto(x, pre)
		g.wh.MulVecInto(f.in[si], tmp)
		for j := range pre {
			pre[j] = pre[j] + tmp[j] + g.b[j]
			y[j] = g.act.Apply(pre[j])
		}
	}
}

// backprop is one trainer's BPTT scratch, sized for its longest sequence.
type backprop struct {
	fr       []frame // fr[0] is the zero initial state, fr[t+1] the state after step t
	m, tmp   []float64
	lossGrad []float64
	dh, dc   []float64 // the loss gradient w.r.t. the state after the current step
	carry    []float64 // the GRU's direct u⊙h path into the previous state
	dd, back []float64 // gradient w.r.t. ĥ, and one stack's recurrent back-product
	da       []float64 // every gate's pre-activation gradient, in frame order
}

func (s *cellSpec) newBackprop(maxSteps int) *backprop {
	n := s.n()
	vec := func(size int) []float64 { return make([]float64, size) }
	return &backprop{
		fr: s.newFrames(maxSteps + 1), m: vec(n), tmp: vec(n), lossGrad: vec(s.wo.Cols),
		dh: vec(n), dc: vec(n), carry: vec(n), dd: vec(n), back: vec(n),
		da: vec(s.offset(len(s.stacks))),
	}
}

// bptt runs one stochastic pass over sm, drawing its mask from rng, and
// adds the sample's full backpropagation-through-time gradient into g (a
// spec from zeros). It returns the sample's loss.
func (s *cellSpec) bptt(sm Sample, loss train.Loss, g *cellSpec, w *backprop, rng *rand.Rand) (float64, error) {
	steps := len(sm.Xs)
	s.mask(rng, w.m)
	for t, x := range sm.Xs {
		s.step(x, w.m, &w.fr[t], &w.fr[t+1], w.tmp)
	}
	hT := w.fr[steps].h
	lv, err := loss.Eval(readout(s.wo, s.bo, hT), sm.Y, w.lossGrad)
	if err != nil {
		return 0, err
	}
	_ = g.wo.OuterAddInPlace(hT, w.lossGrad) // shapes fixed by zeros
	for j, v := range w.lossGrad {
		g.bo[j] += v
	}
	mulT(s.wo, w.lossGrad, w.dh, false)
	clear(w.dc)
	for t := steps - 1; t >= 0; t-- {
		s.backStep(sm.Xs[t], &w.fr[t], &w.fr[t+1], g, w, t > 0)
	}
	return lv, nil
}

// backStep takes w.dh (and w.dc) through one step: the kind's un-combine
// gives every gate's pre-activation gradient, each stack adds its Wx, Wh
// and b gradients, and, when more steps remain, the recurrent
// back-products give the gradient w.r.t. the previous state.
func (s *cellSpec) backStep(x []float64, prev, cur *frame, g *cellSpec, w *backprop, more bool) {
	n, dh, da := s.n(), w.dh, w.da
	switch s.kind {
	case kindElman:
		act := s.stacks[0][0].act
		for j := range dh {
			da[j] = dh[j] * act.Derivative(cur.pre[j])
		}
		s.accumulate(g, 0, x, cur, da)
		if more {
			s.backProduct(0, da, w.back)
			for j := range dh {
				dh[j] = w.back[j] * w.m[j]
			}
		}
	case kindGRU:
		r, u, c := cur.y[:n], cur.y[n:2*n], cur.y[2*n:]
		for j := range dh {
			du := dh[j] * (prev.h[j] - c[j])
			da[n+j] = du * u[j] * (1 - u[j])
			dc := dh[j] * (1 - u[j])
			da[2*n+j] = dc * (1 - c[j]*c[j])
			w.carry[j] = dh[j] * u[j]
		}
		s.accumulate(g, 1, x, cur, da)
		s.backProduct(1, da, w.back) // gradient w.r.t. r⊙ĥ
		d := cur.in[0]
		for j := range dh {
			da[j] = w.back[j] * d[j] * r[j] * (1 - r[j])
			w.dd[j] = w.back[j] * r[j]
		}
		s.accumulate(g, 0, x, cur, da)
		if more {
			s.backProduct(0, da, w.back)
			for j := range dh {
				w.dd[j] += w.back[j]
				dh[j] = w.carry[j] + w.dd[j]*w.m[j]
			}
		}
	case kindLSTM:
		i, f, o, gg := cur.y[:n], cur.y[n:2*n], cur.y[2*n:3*n], cur.y[3*n:]
		for j := range dh {
			tc := cur.tc[j]
			do := dh[j] * tc
			dc := w.dc[j] + dh[j]*o[j]*(1-tc*tc)
			da[j] = dc * gg[j] * i[j] * (1 - i[j])
			da[n+j] = dc * prev.c[j] * f[j] * (1 - f[j])
			da[2*n+j] = do * o[j] * (1 - o[j])
			da[3*n+j] = dc * i[j] * (1 - gg[j]*gg[j])
			w.dc[j] = dc * f[j]
		}
		s.accumulate(g, 0, x, cur, da)
		if more {
			s.backProduct(0, da, w.back)
			for j := range dh {
				dh[j] = w.back[j] * w.m[j]
			}
		}
	}
}

// accumulate adds stack si's gradients at one step into g: x⊗da to each
// gate's Wx, in⊗da to its Wh, da to its bias.
func (s *cellSpec) accumulate(g *cellSpec, si int, x []float64, f *frame, da []float64) {
	n, off := s.n(), s.offset(si)
	for gi, gg := range g.stacks[si] {
		d := da[off+gi*n : off+(gi+1)*n]
		_ = gg.wx.OuterAddInPlace(x, d) // shapes fixed by zeros
		_ = gg.wh.OuterAddInPlace(f.in[si], d)
		for j, v := range d {
			gg.b[j] += v
		}
	}
}

// backProduct sets out to the gradient w.r.t. stack si's recurrent input:
// Σ_g Wh_g·da_g, the gates added in order.
func (s *cellSpec) backProduct(si int, da, out []float64) {
	n, off := s.n(), s.offset(si)
	for gi, g := range s.stacks[si] {
		mulT(g.wh, da[off+gi*n:off+(gi+1)*n], out, gi > 0)
	}
}

// mulT sets (or, with add, adds to) out the product m·v, each element
// summed in ascending order like tensor.MulVecT.
func mulT(m *tensor.Matrix, v, out []float64, add bool) {
	for i := range out {
		var sum float64
		for j, w := range m.Row(i) {
			sum += w * v[j]
		}
		if add {
			out[i] += sum
		} else {
			out[i] = sum
		}
	}
}
