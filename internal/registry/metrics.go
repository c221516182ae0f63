package registry

import (
	"github.com/apdeepsense/apdeepsense/internal/obs"
)

// Metrics is the registry's observability surface. All methods are nil-safe,
// matching the serve.Metrics convention: an unconfigured registry pays one
// nil check per event.
//
// Families (see README "Serving"):
//
//	apds_registry_requests_total{model,route}     served requests by route (current|canary)
//	apds_registry_swaps_total{model}              route-table swaps applied
//	apds_registry_reloads_total{result}           manifest reload attempts (ok|error|unchanged)
//	apds_registry_versions{model}                 registered (routable or draining) versions
//	apds_registry_shadow_total{model}             shadow comparisons completed
//	apds_registry_shadow_dropped_total{model}     shadow duplicates dropped (pool saturated)
//	apds_registry_shadow_mean_drift{model}        |shadow mean − primary mean| per output dim
//	apds_registry_shadow_std_drift{model}         |shadow σ − primary σ| per output dim
type Metrics struct {
	requests      *obs.CounterVec
	swaps         *obs.CounterVec
	reloads       *obs.CounterVec
	versions      *obs.GaugeVec
	shadow        *obs.CounterVec
	shadowDropped *obs.CounterVec
	meanDrift     *obs.HistogramVec
	stdDrift      *obs.HistogramVec
}

// driftBuckets spans |drift| from 1e-9 (numerical noise between builds of the
// same weights) to ~0.5 (a genuinely different model) in ×4 steps.
func driftBuckets() []float64 { return obs.ExpBuckets(1e-9, 4, 15) }

// NewMetrics registers the registry metric families in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		requests: reg.CounterVec("apds_registry_requests_total",
			"Requests served by the model registry, by model and route.", "model", "route"),
		swaps: reg.CounterVec("apds_registry_swaps_total",
			"Route-table swaps applied per model.", "model"),
		reloads: reg.CounterVec("apds_registry_reloads_total",
			"Manifest reload attempts by outcome.", "result"),
		versions: reg.GaugeVec("apds_registry_versions",
			"Versions currently registered per model (routable or draining).", "model"),
		shadow: reg.CounterVec("apds_registry_shadow_total",
			"Shadow comparisons completed per model.", "model"),
		shadowDropped: reg.CounterVec("apds_registry_shadow_dropped_total",
			"Shadow duplicates dropped because the shadow pool was saturated.", "model"),
		meanDrift: reg.HistogramVec("apds_registry_shadow_mean_drift",
			"Absolute mean drift per output dimension: shadow candidate vs primary.",
			driftBuckets(), "model"),
		stdDrift: reg.HistogramVec("apds_registry_shadow_std_drift",
			"Absolute standard-deviation drift per output dimension: shadow candidate vs primary.",
			driftBuckets(), "model"),
	}
}

// ShadowCompleted returns the completed shadow-comparison count for model
// (for benchmarks and tests; scraping goes through the obs registry).
func (m *Metrics) ShadowCompleted(model string) float64 {
	if m == nil {
		return 0
	}
	return m.shadow.With(model).Value()
}

// ShadowDropped returns the dropped shadow-duplicate count for model.
func (m *Metrics) ShadowDropped(model string) float64 {
	if m == nil {
		return 0
	}
	return m.shadowDropped.With(model).Value()
}

func (m *Metrics) served(model, route string) {
	if m != nil {
		m.requests.With(model, route).Inc()
	}
}

func (m *Metrics) swapped(model string) {
	if m != nil {
		m.swaps.With(model).Inc()
	}
}

func (m *Metrics) reloaded(result string) {
	if m != nil {
		m.reloads.With(result).Inc()
	}
}

func (m *Metrics) setVersions(model string, n int) {
	if m != nil {
		m.versions.With(model).Set(float64(n))
	}
}

func (m *Metrics) shadowDone(model string) {
	if m != nil {
		m.shadow.With(model).Inc()
	}
}

func (m *Metrics) shadowDrop(model string) {
	if m != nil {
		m.shadowDropped.With(model).Inc()
	}
}

func (m *Metrics) drift(model string, meanDrift, stdDrift float64) {
	if m != nil {
		m.meanDrift.With(model).Observe(meanDrift)
		m.stdDrift.With(model).Observe(stdDrift)
	}
}
