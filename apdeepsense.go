// Package apdeepsense is the public facade of the ApDeepSense reproduction:
// sampling-free output-uncertainty estimation for dropout-trained
// fully-connected neural networks on resource-constrained devices (Yao et
// al., "ApDeepSense: Deep Learning Uncertainty Estimation Without the Pain
// for IoT Applications", ICDCS 2018).
//
// The typical flow:
//
//	net, _ := apdeepsense.LoadModel("model.gob")       // a dropout-trained network
//	est, _ := apdeepsense.New(net, apdeepsense.Options{})
//	dist, _ := est.Predict(x)                          // one deterministic pass
//	fmt.Println(dist.Mean[0], "±", dist.Std(0))        // mean and uncertainty
//
// Baselines (MCDrop-k sampling, retrained RDeepSense), training, synthetic
// IoT datasets, the Intel Edison cost model, and the full experiment harness
// that regenerates the paper's tables and figures are re-exported below.
package apdeepsense

import (
	"io"

	"github.com/apdeepsense/apdeepsense/internal/cluster"
	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/datasets"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/experiments"
	"github.com/apdeepsense/apdeepsense/internal/hashkey"
	"github.com/apdeepsense/apdeepsense/internal/mcdrop"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/quantize"
	"github.com/apdeepsense/apdeepsense/internal/rdeepsense"
	"github.com/apdeepsense/apdeepsense/internal/registry"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/session"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/stream"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// Core model vocabulary.
type (
	// Vector is a dense float64 vector.
	Vector = tensor.Vector
	// Matrix is a dense row-major float64 matrix.
	Matrix = tensor.Matrix
	// Network is a fully-connected neural network with dropout.
	Network = nn.Network
	// NetworkConfig describes a network to construct.
	NetworkConfig = nn.Config
	// Activation identifies a layer non-linearity.
	Activation = nn.Activation
	// GaussianVec is a diagonal Gaussian predictive distribution.
	GaussianVec = core.GaussianVec
	// Estimator is the common contract of all uncertainty estimators.
	Estimator = core.Estimator
	// Options configures the ApDeepSense propagator (PWL piece counts).
	Options = core.Options
)

// Activation values.
const (
	ActIdentity = nn.ActIdentity
	ActReLU     = nn.ActReLU
	ActTanh     = nn.ActTanh
	ActSigmoid  = nn.ActSigmoid
)

// NewNetwork constructs a freshly initialized dropout network.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return nn.New(cfg) }

// ErrModel matches (via errors.Is) every error LoadModel or ReadModel
// returns for malformed model data — undecodable streams, wrong magic or
// version, inconsistent shapes, or non-finite weights — as opposed to I/O
// failures opening the file.
var ErrModel = nn.ErrModel

// LoadModel reads a serialized network from a file.
func LoadModel(path string) (*Network, error) { return nn.LoadFile(path) }

// ReadModel reads a serialized network from a reader.
func ReadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// New builds the ApDeepSense estimator for a dropout-trained network with no
// observation-noise floor. Use NewWithObsVar to add one. Trailing options
// (e.g. WithWorkers) configure the underlying Propagator.
func New(net *Network, opts Options, extra ...PropagatorOption) (*core.ApDeepSense, error) {
	return core.NewApDeepSense(net, opts, 0, extra...)
}

// NewWithObsVar builds the ApDeepSense estimator with an observation-noise
// variance added to every predictive variance.
func NewWithObsVar(net *Network, opts Options, obsVar float64, extra ...PropagatorOption) (*core.ApDeepSense, error) {
	return core.NewApDeepSense(net, opts, obsVar, extra...)
}

// NewMCDrop builds the MCDrop-k sampling baseline over the same network.
// Its k passes run as masked row tiles on one seeded mask stream, so the
// estimate depends on the seed and never on the host's core count.
func NewMCDrop(net *Network, k int, obsVar float64, seed int64) (*mcdrop.Estimator, error) {
	return mcdrop.New(net, k, obsVar, seed)
}

// PropagatorOption configures optional Propagator behavior.
type PropagatorOption = core.Option

// WithWorkers bounds the batched-propagation fan-out (default GOMAXPROCS;
// 1 forces the single-threaded path).
var WithWorkers = core.WithWorkers

// Estimator internals exposed for serving-path integration.
type (
	// ApDeepSenseEstimator is the concrete estimator returned by New; it
	// exposes the underlying Propagator for hook attachment and ablations.
	ApDeepSenseEstimator = core.ApDeepSense
	// Propagator is the closed-form moment-propagation engine.
	Propagator = core.Propagator
	// PropagatorHooks carries the optional observability callbacks a
	// Propagator invokes (per-layer wall time, batch sizes, scratch-pool
	// reuse). Attach with Propagator.SetHooks; nil hooks cost nothing on
	// the hot path.
	PropagatorHooks = core.Hooks
)

// Observability re-exports (internal/obs): the dependency-free metrics
// registry (Prometheus text exposition) and per-request trace spans used by
// examples/server, whose /metrics scrape the perfbench benchmark reads.
type (
	// ObsRegistry holds metric families and renders Prometheus text format.
	ObsRegistry = obs.Registry
	// ObsCounter is a monotonically increasing metric.
	ObsCounter = obs.Counter
	// ObsGauge is a metric that can go up and down.
	ObsGauge = obs.Gauge
	// ObsHistogram buckets observations (exponential latency layouts).
	ObsHistogram = obs.Histogram
	// ObsCounterVec is a counter family with a fixed label schema.
	ObsCounterVec = obs.CounterVec
	// ObsGaugeVec is a gauge family with a fixed label schema.
	ObsGaugeVec = obs.GaugeVec
	// ObsHistogramVec is a histogram family with a fixed label schema.
	ObsHistogramVec = obs.HistogramVec
	// ObsTrace is a lightweight per-request span collector.
	ObsTrace = obs.Trace
	// ObsSpan is one finished timed section of a trace.
	ObsSpan = obs.Span
)

// Observability constructors and bucket layouts.
var (
	// NewObsRegistry returns an empty metrics registry.
	NewObsRegistry = obs.NewRegistry
	// NewObsTrace starts a trace identified by a request ID.
	NewObsTrace = obs.NewTrace
	// ObsExpBuckets builds exponential histogram bucket bounds.
	ObsExpBuckets = obs.ExpBuckets
	// ObsLatencyBuckets is the default request-latency bucket layout.
	ObsLatencyBuckets = obs.LatencyBuckets
)

// Batch inference vocabulary: estimators implementing BatchPredictor get the
// matrix-level fast path (one blocked matrix–matrix pass per layer for the
// whole batch); everything else falls back to a worker-pool fan-out.
type (
	// GaussianBatch is a batch of diagonal Gaussians as B×D moment matrices.
	GaussianBatch = core.GaussianBatch
	// BatchPredictor is the batched counterpart of Estimator.Predict.
	BatchPredictor = core.BatchPredictor
	// BatchProbsPredictor is the batched counterpart of PredictProbs.
	BatchProbsPredictor = core.BatchProbsPredictor
)

// Batch inference over any estimator (fast path or worker-pool fan-out).
var (
	// PredictBatch runs Predict over a batch of inputs, using the
	// matrix-level fast path when the estimator supports it.
	PredictBatch = core.PredictBatch
	// PredictProbsBatch runs PredictProbs over a batch the same way.
	PredictProbsBatch = core.PredictProbsBatch
	// NewGaussianBatch allocates a zero batch of b Gaussians of dimension d.
	NewGaussianBatch = core.NewGaussianBatch
)

// Serving re-exports (internal/serve): the dynamic micro-batching layer that
// coalesces concurrent single-row predict requests onto the batched
// moment-propagation fast path. A coalesced request's result is bit-identical
// to calling the estimator directly; under load, requests arriving together
// share one matrix-level pass per layer.
type (
	// ServeConfig tunes a coalescer (batch cap, queue bound, metrics).
	ServeConfig = serve.Config
	// ServeMetrics instruments a coalescer into an ObsRegistry.
	ServeMetrics = serve.Metrics
	// ServeQueueFullError is the typed queue-full rejection carrying the
	// observed depth and a retry budget (matches ErrServeQueueFull).
	ServeQueueFullError = serve.QueueFullError
	// PredictCoalescer coalesces Predict calls onto the batched fast path.
	PredictCoalescer = serve.PredictCoalescer
)

// Serving constructors and error classes.
var (
	// NewPredictCoalescer builds a coalescer flushing into PredictBatch.
	NewPredictCoalescer = serve.NewPredict
	// NewServeMetrics registers coalescer metrics on a registry.
	NewServeMetrics = serve.NewMetrics
	// ErrServeQueueFull marks rejected requests under overload (HTTP 429).
	ErrServeQueueFull = serve.ErrQueueFull
	// ErrServeBatchTooLarge marks a multi-row request with more rows than
	// the queue can ever hold: not retryable (HTTP 413).
	ErrServeBatchTooLarge = serve.ErrBatchTooLarge
	// ServeRetryAfter extracts the retry budget from a queue-full rejection
	// anywhere in an error chain (HTTP servers render it as Retry-After).
	ServeRetryAfter = serve.RetryAfter
	// ErrServeClosed marks requests arriving after shutdown began.
	ErrServeClosed = serve.ErrClosed
)

// Model-registry re-exports (internal/registry): multi-model serving with
// versioned atomic hot-swap, shadow/canary traffic policies, and per-version
// coalescer pools. The "Model" prefix keeps these distinct from the metrics
// ObsRegistry above.
type (
	// ModelRegistry maps model names to ordered, individually-poolable
	// versions and routes requests through atomic route-table snapshots.
	ModelRegistry = registry.Registry
	// ModelRegistryConfig configures a ModelRegistry (shared serve/propagator
	// options, shadow pool sizing, metrics).
	ModelRegistryConfig = registry.Config
	// ModelRegistryMetrics is the registry's observability surface.
	ModelRegistryMetrics = registry.Metrics
	// ModelVersion is one immutable loaded version of a model.
	ModelVersion = registry.Version
	// ModelServed tags a response with the model/version/route that served it.
	ModelServed = registry.Served
	// ModelManifest is the on-disk description of models, versions, and
	// traffic policy.
	ModelManifest = registry.Manifest
	// ModelManifestModel is one model entry in a manifest.
	ModelManifestModel = registry.ManifestModel
	// ModelManifestVersion names one serialized model file in a manifest.
	ModelManifestVersion = registry.ManifestVersion
	// ModelManifestCanary is a manifest's weighted candidate split.
	ModelManifestCanary = registry.ManifestCanary
	// ModelManifestSessions is a manifest's resident session-fleet block.
	ModelManifestSessions = registry.ManifestSessions
	// ModelManifestLoader ties a registry to a manifest file: explicit
	// reloads plus a poll-based watch loop.
	ModelManifestLoader = registry.Loader
	// ModelStatus reports one model's routing and versions.
	ModelStatus = registry.ModelStatus
	// ModelVersionStatus reports one registered version.
	ModelVersionStatus = registry.VersionStatus
)

// Model-registry constructors, routes, and error classes.
var (
	// NewModelRegistry builds an empty registry.
	NewModelRegistry = registry.New
	// NewModelRegistryMetrics registers the registry metric families.
	NewModelRegistryMetrics = registry.NewMetrics
	// NewModelManifestLoader builds a manifest loader for a registry.
	NewModelManifestLoader = registry.NewLoader
	// LoadModelManifest reads and validates a manifest file.
	LoadModelManifest = registry.LoadManifest
	// ModelRouteCurrent labels responses served by the current version.
	ModelRouteCurrent = registry.RouteCurrent
	// ModelRouteCanary labels responses served by the canary split.
	ModelRouteCanary = registry.RouteCanary
	// ErrModelNotFound marks requests for unknown models or versions (404).
	ErrModelNotFound = registry.ErrNotFound
	// ErrModelNotReady marks models with no routable current version (503).
	ErrModelNotReady = registry.ErrNotReady
	// ErrModelRegistry marks invalid registry operations.
	ErrModelRegistry = registry.ErrRegistry
	// ErrModelRegistryClosed marks requests after registry shutdown began.
	ErrModelRegistryClosed = registry.ErrClosed
	// ErrModelManifest marks unreadable or inconsistent manifests.
	ErrModelManifest = registry.ErrManifest
)

// Convolutional extension re-exports (paper §VI future work, internal/conv).
type (
	// Seq is a time-series tensor for Conv1D models.
	Seq = conv.Seq
	// Conv1D is a 1-D convolution layer with channel dropout.
	Conv1D = conv.Conv1D
	// ConvNet is a hybrid conv → pool → dense network with end-to-end
	// moment propagation.
	ConvNet = conv.Net
	// ConvSample is one supervised time-series example.
	ConvSample = conv.Sample
	// ConvTrainConfig controls TrainConvNet.
	ConvTrainConfig = conv.TrainConfig
)

// Convolutional constructors and training.
var (
	// NewSeq allocates a zero time-series tensor.
	NewSeq = conv.NewSeq
	// NewConv1D builds a Glorot-initialized conv layer.
	NewConv1D = conv.NewConv1D
	// NewConvNet assembles conv layers and a dense head.
	NewConvNet = conv.NewNet
	// TrainConvNet fits a hybrid network with minibatch SGD.
	TrainConvNet = conv.Train
)

// Recurrent extension re-exports (paper §VI future work, internal/rnn).
type (
	// RNNCell is an Elman recurrence with recurrent (per-sequence) dropout.
	RNNCell = rnn.Cell
	// RNNSample is one supervised sequence example.
	RNNSample = rnn.Sample
	// RNNTrainConfig controls TrainRNN.
	RNNTrainConfig = rnn.TrainConfig
)

// Recurrent constructors and training.
var (
	// NewRNNCell builds a Glorot-initialized recurrent cell.
	NewRNNCell = rnn.NewCell
	// TrainRNN fits a cell with BPTT and variational recurrent dropout.
	TrainRNN = rnn.Train
	// NewGRU builds a gated recurrent unit with recurrent dropout.
	NewGRU = rnn.NewGRU
	// TrainGRU fits a GRU with BPTT and variational recurrent dropout.
	TrainGRU = rnn.TrainGRU
)

// GRU is a gated recurrent unit with moment propagation through its gates.
type GRU = rnn.GRU

// LSTM is a long short-term memory cell (the architecture of Gal &
// Ghahramani's variational RNN, the paper's [37]) with moment propagation.
type LSTM = rnn.LSTM

// LSTM constructors and training.
var (
	// NewLSTM builds an LSTM with recurrent dropout and forget bias +1.
	NewLSTM = rnn.NewLSTM
	// TrainLSTM fits an LSTM with BPTT and variational recurrent dropout.
	TrainLSTM = rnn.TrainLSTM
)

// Sequence uncertainty estimators: the conv/RNN/GRU moment-propagation
// paths behind the same Predict contract as the dense ApDeepSense
// estimator, servable through the model registry via AddVersionEstimator.
type (
	// ConvEstimator predicts mean and variance for fixed-length
	// time-series inputs through a ConvNet's moment propagation.
	ConvEstimator = conv.Estimator
	// RNNEstimator predicts through the step-wise moments of an Elman cell
	// (NewRNNEstimator) or a GRU (NewGRUEstimator). One type serves both:
	// it implements BatchPredictor, stepping a whole batch through one
	// gate-stack matmul per step, and is safe for concurrent use.
	RNNEstimator = rnn.Estimator
	// GRUEstimator is the same type as RNNEstimator.
	//
	// Deprecated: NewGRUEstimator returns an *RNNEstimator; use that name.
	GRUEstimator = rnn.Estimator
)

// Sequence estimator constructors.
var (
	// NewConvEstimator wraps a ConvNet for steps-long inputs.
	NewConvEstimator = conv.NewEstimator
	// NewRNNEstimator wraps an Elman cell for steps-long inputs.
	NewRNNEstimator = rnn.NewEstimator
	// NewGRUEstimator wraps a GRU for steps-long inputs; it returns an
	// *RNNEstimator.
	NewGRUEstimator = rnn.NewGRUEstimator
)

// Exact rectified-Gaussian moments: the backend ReLU and leaky-ReLU layers
// are propagated with (tanh, sigmoid and identity use the PWL closed form).
var (
	// RectifiedMoments returns the exact mean and variance of
	// max(0, X) for X ~ N(mu, sigma²).
	RectifiedMoments = stats.RectifiedMoments
	// LeakyRectifiedMoments is the leaky-ReLU generalization.
	LeakyRectifiedMoments = stats.LeakyRectifiedMoments
)

// Streaming inference re-exports (internal/stream).
type (
	// Windower slices continuous sensor samples into sliding windows.
	Windower = stream.Windower
	// OnlineStandardizer z-scores vectors against running statistics.
	OnlineStandardizer = stream.OnlineStandardizer
	// Gate converts predictive variance into accept/escalate decisions.
	Gate = stream.Gate
	// StreamPipeline chains windowing, standardization, an estimator, and
	// a gate into a push-based predictor.
	StreamPipeline = stream.Pipeline
	// StreamResult is one emitted pipeline prediction.
	StreamResult = stream.Result
)

// Streaming constructors.
var (
	// NewWindower builds a sliding windower.
	NewWindower = stream.NewWindower
	// NewOnlineStandardizer tracks running input statistics.
	NewOnlineStandardizer = stream.NewOnlineStandardizer
	// NewGate bounds the mean predictive standard deviation.
	NewGate = stream.NewGate
	// NewGateWithHysteresis bounds the mean predictive standard deviation
	// with consecutive-window escalate/readmit streaks (NewGate is the 1/1
	// special case).
	NewGateWithHysteresis = stream.NewGateWithHysteresis
	// NewStreamPipeline assembles a streaming predictor.
	NewStreamPipeline = stream.NewPipeline
)

// StreamDecision is the uncertainty gate's verdict for one prediction.
type StreamDecision = stream.Decision

// Gate decisions.
const (
	// StreamAccept means uncertainty is within budget.
	StreamAccept = stream.Accept
	// StreamEscalate means uncertainty exceeds the budget: defer to a
	// fallback (bigger model, cloud, human).
	StreamEscalate = stream.Escalate
)

// Session-fleet re-exports (internal/session): the resident device-session
// manager — per-device streaming state (windower ring, online-standardizer
// moments, surprisal statistics, calibrated drift gate) held in a sharded
// struct-of-arrays arena that sustains millions of resident sessions on one
// node, with timing-wheel idle eviction and whole-fleet snapshot/restore
// that continues every device's verdict stream bit for bit across restarts.
type (
	// SessionManager owns a fleet of resident device sessions.
	SessionManager = session.Manager
	// SessionConfig tunes a SessionManager (window shape, gate policy,
	// sharding, idle eviction, batching).
	SessionConfig = session.Config
	// SessionVerdict is one per-sample ingest outcome (prediction,
	// surprisal z, calibrated score, gate decision).
	SessionVerdict = session.Verdict
	// SessionStats is a point-in-time fleet counter snapshot.
	SessionStats = session.Stats
	// SessionSnapshotInfo summarizes one snapshot or restore pass.
	SessionSnapshotInfo = session.SnapshotInfo
	// SessionMetrics instruments a fleet into an ObsRegistry.
	SessionMetrics = session.Metrics
	// SessionCalibrator maps surprisal z-scores to calibrated scores via
	// isotonic interpolation.
	SessionCalibrator = session.Calibrator
	// SessionPredictBatchFunc is the batched model hook a SessionManager
	// predicts through (wrap a ModelRegistry for hot-swap-safe fleets).
	SessionPredictBatchFunc = session.PredictBatchFunc
)

// Session-fleet constructors and error classes.
var (
	// NewSessionManager builds a fleet manager over a batched predictor.
	NewSessionManager = session.NewManager
	// NewSessionMetrics registers the fleet metric families.
	NewSessionMetrics = session.NewMetrics
	// DefaultSessionCalibrator is the built-in logistic-derived isotonic
	// calibrator (score 0.9 at roughly 4.2 sigma).
	DefaultSessionCalibrator = session.DefaultCalibrator
	// FitIsotonicCalibrator fits a monotone calibrator to (z, target)
	// pairs by pool-adjacent-violators.
	FitIsotonicCalibrator = session.FitIsotonic
	// ErrSessionConfig marks invalid SessionConfig values.
	ErrSessionConfig = session.ErrConfig
	// ErrSessionClosed marks ingests after Close began.
	ErrSessionClosed = session.ErrClosed
	// ErrSessionEvicted marks a session evicted mid-prediction.
	ErrSessionEvicted = session.ErrEvicted
	// ErrSessionSnapshot marks unreadable, corrupt, or incompatible fleet
	// snapshots (and retryable mid-pass shrink races during Snapshot).
	ErrSessionSnapshot = session.ErrSnapshot
)

// Quantization re-exports (internal/quantize): int8 post-training weight
// quantization as a compact file format for flash-constrained deployment.
// A quantized model serves by Dequantize-ing into an ordinary Network, so
// it runs on the same float engine as any other model.
type (
	// QuantizedModel is an int8-quantized network.
	QuantizedModel = quantize.Model
)

// Quantization entry points.
var (
	// QuantizeModel converts a trained network to int8 codes.
	QuantizeModel = quantize.Quantize
	// LoadQuantized reads a quantized model from a reader.
	LoadQuantized = quantize.Load
)

// Training re-exports.
type (
	// TrainSample is one supervised example.
	TrainSample = train.Sample
	// TrainConfig controls Fit.
	TrainConfig = train.Config
	// TrainHistory records per-epoch losses.
	TrainHistory = train.History
)

// Fit trains a network in place (dropout masks sampled per example).
func Fit(net *Network, trainSet, valSet []TrainSample, cfg TrainConfig) (*TrainHistory, error) {
	return train.Fit(net, trainSet, valSet, cfg)
}

// Losses and optimizers for TrainConfig.
var (
	// NewAdam returns an Adam optimizer.
	NewAdam = train.NewAdam
	// NewSGD returns an SGD optimizer with momentum.
	NewSGD = train.NewSGD
)

// MSELoss returns the mean-squared-error training loss.
func MSELoss() train.Loss { return train.MSE{} }

// CrossEntropyLoss returns the fused softmax cross-entropy training loss.
func CrossEntropyLoss() train.Loss { return train.SoftmaxCrossEntropy{} }

// Dataset re-exports: the synthetic IoT tasks of the paper's evaluation.
type (
	// Dataset is a generated, split, standardized task.
	Dataset = datasets.Dataset
	// DatasetSize controls generated split sizes.
	DatasetSize = datasets.Size
)

// Synthetic task generators (see internal/datasets for the simulators).
var (
	// BPEst generates the blood-pressure waveform task.
	BPEst = datasets.BPEst
	// NYCommute generates the taxi commute-time task.
	NYCommute = datasets.NYCommute
	// GasSen generates the gas-mixture estimation task.
	GasSen = datasets.GasSen
	// HHAR generates the heterogeneous activity recognition task.
	HHAR = datasets.HHAR
)

// RDeepSense baseline re-exports.
type (
	// RDeepSenseEstimator is the retrained baseline estimator.
	RDeepSenseEstimator = rdeepsense.Estimator
	// RDeepSenseConfig controls RDeepSense retraining.
	RDeepSenseConfig = rdeepsense.TrainConfig
)

// RDeepSense training entry points.
var (
	// TrainRDeepSenseRegression retrains the regression baseline.
	TrainRDeepSenseRegression = rdeepsense.TrainRegression
	// TrainRDeepSenseClassification retrains the classification baseline.
	TrainRDeepSenseClassification = rdeepsense.TrainClassification
)

// Device cost model re-exports.
type (
	// Device models an Edison-class processor.
	Device = edison.Device
	// Cost is a hardware-independent inference cost.
	Cost = edison.Cost
)

// NewEdison returns the calibrated Intel Edison device model.
func NewEdison() *Device { return edison.NewEdison() }

// Experiment harness re-exports.
type (
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = experiments.Runner
	// ExperimentScale trades fidelity for runtime.
	ExperimentScale = experiments.Scale
)

// Experiment scales and constructor.
var (
	// QuickScale is for smoke tests.
	QuickScale = experiments.QuickScale
	// DefaultScale is the recorded-results configuration.
	DefaultScale = experiments.DefaultScale
	// PaperScale matches the paper's 5-layer 512-wide networks.
	PaperScale = experiments.PaperScale
	// NewExperimentRunner builds a Runner.
	NewExperimentRunner = experiments.NewRunner
	// WithModelDir enables model caching for a Runner.
	WithModelDir = experiments.WithModelDir
	// WithExperimentLogf sets a Runner progress logger.
	WithExperimentLogf = experiments.WithLogf
)

// Cluster serving-tier re-exports (internal/cluster): the scale-out layer
// that shards request keys across replica processes behind one front door.
type (
	// ClusterRing is an immutable consistent-hash ring over shard names.
	ClusterRing = cluster.Ring
	// ClusterRouter is the front-door HTTP router: key-sharded proxying,
	// health probing, drain/rejoin, saturation spillover, and load shedding.
	ClusterRouter = cluster.Router
	// ClusterRouterConfig configures a ClusterRouter.
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterMetrics is the router's observability surface.
	ClusterMetrics = cluster.Metrics
	// ClusterBudget is a token-bucket admission controller with Retry-After
	// pricing.
	ClusterBudget = cluster.Budget
	// ClusterZipf is a deterministic Zipf request-key generator for load
	// testing.
	ClusterZipf = cluster.Zipf
)

// Cluster constructors and hashing entry points.
var (
	// NewClusterRing builds a consistent-hash ring (vnodes <= 0 selects the
	// default of 128 per shard).
	NewClusterRing = cluster.NewRing
	// NewClusterRouter builds and starts a front-door router.
	NewClusterRouter = cluster.NewRouter
	// NewClusterMetrics registers the cluster metric families.
	NewClusterMetrics = cluster.NewMetrics
	// NewClusterBudget builds a token-bucket admission budget.
	NewClusterBudget = cluster.NewBudget
	// NewClusterZipf builds a seedable Zipf key generator.
	NewClusterZipf = cluster.NewZipf
	// HashKey64 is the avalanche-finished 64-bit key hash shared by the
	// ring and the registry's canary splitter.
	HashKey64 = hashkey.Hash64
	// HashKeyFraction maps a key to a uniform fraction in [0, 1).
	HashKeyFraction = hashkey.Fraction
)
