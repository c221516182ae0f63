package nn

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// SampleTile is the most rows Sample pushes through the network at once:
// k stochastic passes run as ⌈k/SampleTile⌉ masked tiles, so a sampler's
// scratch does not grow with k.
const SampleTile = 64

// Pass is the network's one dense dropout pass, forward and backward. It
// pushes up to a fixed number of rows through every layer as one
// tensor.MulInto per layer. Each layer's input rows are either masked by
// Bernoulli keep flags (DrawMasks; training and MCDrop) or scaled by the
// layer's keep probability (the deterministic weight-scaling forward):
// Network.Forward is the one-row scaled case and ForwardSample the one-row
// masked case.
//
// Row by row, the pass is value-identical to pushing each row through
// MulVecInto on its own: MulInto accumulates every output element over the
// shared dimension in ascending order and skips zero inputs the same way.
// A Pass owns its scratch and is not safe for concurrent use.
type Pass struct {
	layers []*Layer
	rows   int  // rows of the last Forward
	masked bool // whether the last Forward applied keep flags

	keep [][]bool         // per layer: cap×InDim keep flags; nil when KeepProb == 1
	in   []*tensor.Matrix // per layer: cap×InDim input after masking or scaling
	pre  []*tensor.Matrix // per layer: cap×OutDim pre-activation
	out  *tensor.Matrix   // cap×OutputDim network output

	inT, wT []float64 // Backward's transposes
}

// NewPass returns scratch for passes of up to rows rows (rows >= 1).
func (n *Network) NewPass(rows int) *Pass {
	p := &Pass{
		layers: n.layers,
		keep:   make([][]bool, len(n.layers)),
		in:     make([]*tensor.Matrix, len(n.layers)),
		pre:    make([]*tensor.Matrix, len(n.layers)),
		out:    tensor.NewMatrix(rows, n.OutputDim()),
	}
	for i, l := range n.layers {
		if l.KeepProb < 1 {
			p.keep[i] = make([]bool, rows*l.InDim())
		}
		p.in[i] = tensor.NewMatrix(rows, l.InDim())
		p.pre[i] = tensor.NewMatrix(rows, l.OutDim())
	}
	return p
}

// SetRow copies x, which must have the network's input width, into input
// row b.
func (p *Pass) SetRow(b int, x tensor.Vector) { copy(p.in[0].Row(b), x) }

// DrawMasks draws row b's keep flags from rng, layer by layer and unit by
// unit, the order in which a per-sample pass consumes the stream. A unit is
// kept when rng.Float64() < KeepProb; layers with KeepProb == 1 draw
// nothing.
func (p *Pass) DrawMasks(b int, rng *rand.Rand) {
	for i, l := range p.layers {
		if flags := p.keep[i]; flags != nil {
			row := flags[b*l.InDim() : (b+1)*l.InDim()]
			for j := range row {
				row[j] = rng.Float64() < l.KeepProb
			}
		}
	}
}

// Forward runs the first rows input rows through the network and returns
// their rows×OutputDim outputs, a view into the pass's scratch that the next
// Forward overwrites. With masked set, each layer's dropped inputs are
// zeroed by the flags DrawMasks drew; otherwise each input is multiplied by
// the layer's keep probability.
func (p *Pass) Forward(rows int, masked bool) *tensor.Matrix {
	p.rows, p.masked = rows, masked
	for i, l := range p.layers {
		in := p.in[i].TopRows(rows)
		if l.KeepProb < 1 {
			if masked {
				for j, kept := range p.keep[i][:len(in.Data)] {
					if !kept {
						in.Data[j] = 0
					}
				}
			} else {
				for j := range in.Data {
					in.Data[j] *= l.KeepProb
				}
			}
		}
		pre := p.pre[i].TopRows(rows)
		mul(in, l.W, pre)
		next := p.out
		if i+1 < len(p.layers) {
			next = p.in[i+1]
		}
		for b := 0; b < rows; b++ {
			y, x := pre.Row(b), next.Row(b)
			for j := range y {
				y[j] += l.B[j]
				x[j] = l.Act.Apply(y[j])
			}
		}
	}
	return p.out.TopRows(rows)
}

// Backward back-propagates dOut, the rows×OutputDim loss gradient with
// respect to the outputs of the last Forward (which must have been masked),
// and overwrites gW[l] (InDim×OutDim) and gB[l] with layer l's gradients
// summed over the rows: the weight gradient as Xᵀδ and the bias gradient as
// δ's column sums, both accumulated over rows in ascending order. The
// gradient flowing into a layer is δWᵀ with dropped units zeroed. When gIn
// is non-nil it receives that gradient for the network input (rows×InputDim).
// Backward consumes the recorded activations: call it at most once per
// Forward.
func (p *Pass) Backward(dOut *tensor.Matrix, gW []*tensor.Matrix, gB []tensor.Vector, gIn *tensor.Matrix) {
	if !p.masked {
		panic("nn: Backward after an unmasked Forward")
	}
	grad := dOut
	for i := len(p.layers) - 1; i >= 0; i-- {
		l := p.layers[i]
		// δ = grad ⊙ f'(pre), written over the pre-activations.
		delta := p.pre[i].TopRows(p.rows)
		for j, g := range grad.Data[:len(delta.Data)] {
			delta.Data[j] = g * l.Act.Derivative(delta.Data[j])
		}
		in := p.in[i].TopRows(p.rows)
		mul(transpose(&p.inT, in), delta, gW[i])
		gb := gB[i]
		for j := range gb {
			gb[j] = 0
		}
		for b := 0; b < p.rows; b++ {
			for j, d := range delta.Row(b) {
				gb[j] += d
			}
		}
		if i == 0 && gIn == nil {
			break
		}
		// The layer input is no longer needed: its storage takes the
		// gradient flowing into it.
		dst := in
		if i == 0 {
			dst = gIn
		}
		mul(delta, transpose(&p.wT, l.W), dst)
		if flags := p.keep[i]; flags != nil {
			for j, kept := range flags[:len(dst.Data)] {
				if !kept {
					dst.Data[j] = 0
				}
			}
		}
		grad = dst
	}
}

// Sample runs k stochastic passes of x and calls yield with each pass's
// output row in pass order. Each pass's masks are drawn from rng in full
// before the next pass's, so the stream is consumed exactly as k
// ForwardSample calls would consume it; the passes then run as masked tiles
// of up to the pass's row count. The row handed to yield is only valid
// during the call. A wrong-width x is rejected before any mask is drawn.
func (p *Pass) Sample(x tensor.Vector, k int, rng *rand.Rand, yield func(y tensor.Vector)) error {
	if len(x) != p.in[0].Cols {
		return fmt.Errorf("sample: input dim %d, want %d: %w", len(x), p.in[0].Cols, ErrConfig)
	}
	for done := 0; done < k; {
		rows := min(k-done, p.out.Rows)
		for b := 0; b < rows; b++ {
			p.SetRow(b, x)
			p.DrawMasks(b, rng)
		}
		out := p.Forward(rows, true)
		for b := 0; b < rows; b++ {
			yield(out.Row(b))
		}
		done += rows
	}
	return nil
}

// Sample runs k stochastic passes of x on a pass of at most SampleTile rows;
// see Pass.Sample.
func (n *Network) Sample(x tensor.Vector, k int, rng *rand.Rand, yield func(y tensor.Vector)) error {
	return n.NewPass(max(1, min(k, SampleTile))).Sample(x, k, rng, yield)
}

// mul is MulInto on shapes the pass fixed at construction.
func mul(a, b, dst *tensor.Matrix) {
	if err := a.MulInto(b, dst); err != nil {
		panic(err)
	}
}

// transpose writes mᵀ into *buf, growing it as needed, and returns it.
func transpose(buf *[]float64, m *tensor.Matrix) *tensor.Matrix {
	n := m.Rows * m.Cols
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	t := &tensor.Matrix{Rows: m.Cols, Cols: m.Rows, Data: (*buf)[:n]}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}
