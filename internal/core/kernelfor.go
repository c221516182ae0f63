package core

import (
	"fmt"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
)

// KernelFor resolves one activation to its PWL representation and its
// activation-moment kernel — the single source of truth for moment-backend
// dispatch, shared by the dense propagator and the sequence paths
// (internal/conv, internal/rnn). The activation alone picks the backend: the
// exact analytical moments for the rectifier family (ReLU, leaky-ReLU, where
// the closed form is tail-accurate and cheaper than the 2-piece PWL), the PWL
// closed form for everything else. opts supplies the PWL piece counts (zero
// values take the paper's defaults).
func KernelFor(act nn.Activation, opts Options) (*piecewise.Func, *ActKernel, error) {
	opts.fillDefaults()
	var (
		f   *piecewise.Func
		err error
	)
	switch act {
	case nn.ActIdentity:
		f = piecewise.Identity()
	case nn.ActReLU:
		f = piecewise.ReLU()
	case nn.ActLeakyReLU:
		f = piecewise.LeakyReLU(nn.LeakyAlpha)
	case nn.ActTanh:
		f, err = piecewise.Tanh(opts.TanhPieces)
	case nn.ActSigmoid:
		f, err = piecewise.Sigmoid(opts.SigmoidPieces)
	default:
		err = fmt.Errorf("unsupported activation %v: %w", act, ErrInput)
	}
	if err != nil {
		return nil, nil, err
	}
	if _, rect := act.Rectifier(); rect {
		k, err := NewExactActKernel(f)
		if err != nil {
			return nil, nil, err
		}
		return f, k, nil
	}
	return f, NewActKernel(f), nil
}
