package rnn

import (
	"fmt"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// cellKind selects how a step combines its gate outputs into the new state.
type cellKind int

const (
	kindElman cellKind = iota
	kindGRU
	kindLSTM
)

// gate is one gate's weights as a model stores them: input weights Wx
// (in×n), recurrent weights Wh (n×n), bias and activation.
type gate struct {
	wx, wh *tensor.Matrix
	b      tensor.Vector
	act    nn.Activation
}

// gateStack is k gates that read the same recurrent input. Their recurrent
// weights are packed once into one n × k·n dual panel, stacked gate by gate,
// so one tensor.DualMulInto gives every gate's mean (against W) and variance
// (against W²) pre-activation. Column stacking leaves each output's
// accumulation in ascending order, so every element matches a per-gate
// MulVecInto bit for bit.
type gateStack struct {
	panel   *tensor.DualPanel
	bias    []float64         // k·n, gate by gate
	kernels []*core.ActKernel // one per gate, from core.KernelFor
	xOff    int               // the stack's first column in prop.wx
}

// prop is the prepared moment propagator shared by Cell, GRU and LSTM: the
// recurrence applies the dense dropout moments (eqs. 9–10) to the state and
// the activation moments (eqs. 12–26) to every gate at every timestep.
// Elman is one stack of one gate; GRU is the stack {r, u} plus the stack
// {c}, which reads r⊙ĥ; LSTM is the stack {i, f, o, g}.
//
// Every entry point steps B equal-length rows at once (B = 1 per sample).
// A prop is read-only after construction and every call owns its scratch,
// so it is safe for concurrent use. It snapshots the weights: rebuild it
// after mutating the model.
type prop struct {
	kind       cellKind
	in, n, out int
	keep       float64
	wx         *tensor.Matrix // in × K: every gate's input weights, in stack order
	stacks     []gateStack
	readout    *tensor.DualPanel
	bo         []float64
	nBounds    int
}

func newProp(kind cellKind, keep float64, wo *tensor.Matrix, bo tensor.Vector, stacks ...[]gate) (*prop, error) {
	n := wo.Rows
	p := &prop{
		kind: kind, in: stacks[0][0].wx.Rows, n: n, out: wo.Cols, keep: keep,
		readout: tensor.PackDual(wo), bo: append([]float64(nil), bo...),
	}
	var wxs []*tensor.Matrix
	for _, gates := range stacks {
		s := gateStack{xOff: len(wxs) * n}
		whs := make([]*tensor.Matrix, len(gates))
		for g, gt := range gates {
			_, ak, err := core.KernelFor(gt.act, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("rnn: %w", err)
			}
			s.kernels = append(s.kernels, ak)
			s.bias = append(s.bias, gt.b...)
			whs[g] = gt.wh
			wxs = append(wxs, gt.wx)
			p.nBounds = max(p.nBounds, ak.NumBounds())
		}
		s.panel = tensor.PackDual(hstack(whs))
		p.stacks = append(p.stacks, s)
	}
	p.wx = hstack(wxs)
	return p, nil
}

// hstack concatenates equal-height matrices column-wise, in order.
func hstack(ms []*tensor.Matrix) *tensor.Matrix {
	rows, cols := ms[0].Rows, 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := tensor.NewMatrix(rows, cols)
	off := 0
	for _, m := range ms {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*cols+off:], m.Row(i))
		}
		off += m.Cols
	}
	return out
}

// scratch is one call's buffers for rows sequences.
type scratch struct {
	x, xc          *tensor.Matrix // rows×in step inputs, rows×K their gate contributions
	hM, hV, cM, cV []float64      // rows×n state; cM/cV is the LSTM cell state
	dM, dV         []float64      // rows×n dropped state ĥ (the GRU then writes r⊙ĥ here)
	gM, gV         []float64      // rows×K gate outputs; stack s starts at rows·xOff
	bounds         []stats.Boundary
	pms            []stats.PartialMoments
}

func (p *prop) newScratch(rows int) *scratch {
	k := p.wx.Cols
	vec := func(n int) []float64 { return make([]float64, rows*n) }
	return &scratch{
		x: tensor.NewMatrix(rows, p.in), xc: tensor.NewMatrix(rows, k),
		hM: vec(p.n), hV: vec(p.n), cM: vec(p.n), cV: vec(p.n),
		dM: vec(p.n), dV: vec(p.n), gM: vec(k), gV: vec(k),
		bounds: make([]stats.Boundary, p.nBounds),
		pms:    make([]stats.PartialMoments, p.nBounds),
	}
}

// run propagates rows equal-length sequences stored back to back in x (row
// b, step t, input i at (b·steps+t)·in+i) and writes the readout moments
// into the rows×out outM and outV.
func (p *prop) run(x []float64, rows, steps int, outM, outV []float64) {
	sc := p.newScratch(rows)
	for t := 0; t < steps; t++ {
		for b := 0; b < rows; b++ {
			copy(sc.x.Row(b), x[(b*steps+t)*p.in:])
		}
		p.step(sc)
	}
	tensor.DualMulInto(p.readout, sc.hM, sc.hV, outM, outV, rows)
	for i := range outM {
		outM[i] += p.bo[i%p.out]
	}
}

// propagate is the per-sample entry point: one row through run.
func (p *prop) propagate(xs []tensor.Vector) (core.GaussianVec, error) {
	if err := checkSeq(xs, p.in); err != nil {
		return core.GaussianVec{}, err
	}
	x := make([]float64, 0, len(xs)*p.in)
	for _, xt := range xs {
		x = append(x, xt...)
	}
	out := core.NewGaussianVec(p.out)
	p.run(x, 1, len(xs), out.Mean, out.Var)
	return out, nil
}

// step advances the rows×n state one timestep; sc.x holds the step's inputs.
func (p *prop) step(sc *scratch) {
	_ = sc.x.MulInto(p.wx, sc.xc) // shapes fixed by newScratch
	p.drop(sc)
	n, rows := p.n, sc.x.Rows
	switch p.kind {
	case kindElman:
		p.sweep(&p.stacks[0], sc.dM, sc.dV, sc.hM, sc.hV, sc)
	case kindGRU:
		// Row b's r and u sit at b·2n and b·2n+n of the {r, u} output.
		ruM, ruV := sc.gM[:rows*2*n], sc.gV[:rows*2*n]
		cM, cV := sc.gM[rows*2*n:], sc.gV[rows*2*n:]
		p.sweep(&p.stacks[0], sc.dM, sc.dV, ruM, ruV, sc)
		for i := range sc.dM {
			r := i + i/n*n
			sc.dM[i], sc.dV[i] = productMoments(ruM[r], ruV[r], sc.dM[i], sc.dV[i])
		}
		p.sweep(&p.stacks[1], sc.dM, sc.dV, cM, cV, sc)
		// h ← u⊙h + (1−u)⊙c under the independence approximation.
		for i := range sc.hM {
			u := i + i/n*n + n
			uhM, uhV := productMoments(ruM[u], ruV[u], sc.hM[i], sc.hV[i])
			ucM, ucV := productMoments(1-ruM[u], ruV[u], cM[i], cV[i])
			sc.hM[i] = uhM + ucM
			sc.hV[i] = uhV + ucV
		}
	case kindLSTM:
		s := &p.stacks[0]
		p.sweep(s, sc.dM, sc.dV, sc.gM, sc.gV, sc)
		tanh := s.kernels[3] // the candidate's kernel also squashes c
		for i := range sc.hM {
			// Row b's gates i, f, o, g start at b·4n + {0, n, 2n, 3n}.
			// c = f⊙c + i⊙g, then h = o ⊙ tanh(c).
			g := i + 3*(i/n)*n
			fcM, fcV := productMoments(sc.gM[g+n], sc.gV[g+n], sc.cM[i], sc.cV[i])
			igM, igV := productMoments(sc.gM[g], sc.gV[g], sc.gM[g+3*n], sc.gV[g+3*n])
			sc.cM[i] = fcM + igM
			sc.cV[i] = fcV + igV
			tcM, tcV := tanh.Moments(sc.cM[i], sc.cV[i], sc.bounds, sc.pms)
			sc.hM[i], sc.hV[i] = productMoments(sc.gM[g+2*n], sc.gV[g+2*n], tcM, tcV)
		}
	}
}

// drop writes the moments of the dropped state ĥ = h⊙z, z ~ Bernoulli(keep)
// per unit, into dM/dV: E = μp, Var = (μ²+σ²)p − μ²p² (eqs. 9–10). At
// keep == 1 there is no mask and h passes through exactly; the general form
// would round σ² away against a large μ.
func (p *prop) drop(sc *scratch) {
	kp := p.keep
	if kp == 1 {
		copy(sc.dM, sc.hM)
		copy(sc.dV, sc.hV)
		return
	}
	for i, mu := range sc.hM {
		s2 := sc.hV[i]
		sc.dM[i] = mu * kp
		if p.kind == kindElman {
			sc.dV[i] = (mu*mu+s2)*kp - mu*mu*kp*kp
		} else {
			// The gated cells associate μ²p² as (p·p·μ)·μ; each form keeps
			// its cells' rounding.
			sc.dV[i] = (mu*mu+s2)*kp - kp*kp*mu*mu
		}
	}
}

// sweep runs stack s on the rows×n input moments: one dual-panel product for
// every gate's recurrent mean and variance, then per element the input
// contribution plus the recurrent term plus the bias, the variance clamp for
// floating-point cancellation, and the gate's activation moments, into the
// rows × k·n outM/outV.
func (p *prop) sweep(s *gateStack, inM, inV, outM, outV []float64, sc *scratch) {
	kn := s.panel.Out
	tensor.DualMulInto(s.panel, inM, inV, outM, outV, sc.x.Rows)
	for b := 0; b < sc.x.Rows; b++ {
		x := sc.xc.Row(b)[s.xOff : s.xOff+kn]
		om, ov := outM[b*kn:(b+1)*kn], outV[b*kn:(b+1)*kn]
		for j := range om {
			v := ov[j]
			if v < 0 {
				v = 0
			}
			om[j], ov[j] = s.kernels[j/p.n].Moments(x[j]+om[j]+s.bias[j], v, sc.bounds, sc.pms)
		}
	}
}

// cost models one pass over a steps-long sequence (see internal/edison):
// per step the dropout algebra, each gate's input matmul and recurrent
// W/W² matmuls, bias add and activation charge, and the cell's
// product-moment work; then the readout's two matmuls and bias add.
func (p *prop) cost(steps int) edison.Cost {
	in, n, out := int64(p.in), int64(p.n), int64(p.out)
	step := edison.Cost{ElementOps: 5 * n}
	for _, s := range p.stacks {
		for _, ak := range s.kernels {
			step.DenseFLOPs += 2*in*n + 2*2*n*n
			step.ElementOps += n + n*ak.ElementOps()
		}
	}
	switch p.kind {
	case kindGRU:
		// Two products of Gaussians and the convex combination, ~5 each.
		step.ElementOps += 15 * n
	case kindLSTM:
		// Three products of Gaussians and the cell-state sum, then tanh(c).
		step.ElementOps += 15*n + n*p.stacks[0].kernels[3].ElementOps()
	}
	c := step.Scale(int64(steps))
	c.DenseFLOPs += 2 * 2 * n * out
	c.ElementOps += out
	return c
}

// productMoments returns the mean and variance of the product of two
// independent Gaussians.
func productMoments(mu1, v1, mu2, v2 float64) (float64, float64) {
	mean := mu1 * mu2
	variance := mu1*mu1*v2 + mu2*mu2*v1 + v1*v2
	return mean, variance
}

// checkSeq validates a non-empty sequence of in-dimensional steps.
func checkSeq(xs []tensor.Vector, in int) error {
	if len(xs) == 0 {
		return fmt.Errorf("rnn: empty sequence: %w", ErrConfig)
	}
	for t, x := range xs {
		if len(x) != in {
			return fmt.Errorf("rnn: step %d has dim %d, want %d: %w", t, len(x), in, ErrConfig)
		}
	}
	return nil
}

// readout is the deterministic linear readout h·Wo + bo.
func readout(wo *tensor.Matrix, bo, h tensor.Vector) tensor.Vector {
	out := make(tensor.Vector, wo.Cols)
	wo.MulVecInto(h, out)
	for j := range out {
		out[j] += bo[j]
	}
	return out
}
