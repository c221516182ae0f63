package serve

import (
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// PredictCoalescer coalesces single-row Predict requests onto an estimator's
// batched fast path: each flush is one core.PredictBatch call, so ApDeepSense
// estimators cross every layer as a single blocked matrix–matrix pass for
// the whole batch. Results are bit-identical to calling est.Predict per
// request (the batched propagation reproduces the per-row path exactly).
type PredictCoalescer = Coalescer[tensor.Vector, core.GaussianVec]

// NewPredict builds a coalescer whose flushes run est's batched Predict path
// (core.PredictBatch: the matrix-level fast path for BatchPredictor
// estimators, a worker-pool fan-out otherwise).
func NewPredict(est core.Estimator, cfg Config) (*PredictCoalescer, error) {
	return New(cfg, func(rows []tensor.Vector) ([]core.GaussianVec, error) {
		return core.PredictBatch(est, rows, 0)
	})
}
