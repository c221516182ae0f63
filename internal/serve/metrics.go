package serve

import (
	"time"

	"github.com/apdeepsense/apdeepsense/internal/obs"
)

// Metrics is the coalescer's observability surface, registered into an
// internal/obs registry so the serving path scrapes alongside the HTTP and
// propagator metrics. All methods are nil-safe: an unset Config.Metrics
// costs one nil check per event.
//
// Families (see README "Observability"):
//
//	apds_serve_batch_rows              rows per flushed batch
//	apds_serve_queue_wait_seconds      enqueue→flush wait per request
//	apds_serve_queue_depth             requests currently queued
//	apds_serve_flushes_total{reason}   flushes by trigger (size|idle|drain)
//	apds_serve_rejected_total          requests refused with ErrQueueFull
//	apds_serve_cancelled_total         queued requests dropped by context end
type Metrics struct {
	batchRows  *obs.Histogram
	queueWait  *obs.Histogram
	queueDepth *obs.Gauge
	flushes    *obs.CounterVec
	rejected   *obs.Counter
	cancelled  *obs.Counter
}

// NewMetrics registers the coalescer metric families in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		batchRows: reg.Histogram("apds_serve_batch_rows",
			"Rows per coalesced flush batch.", obs.ExpBuckets(1, 2, 12)),
		queueWait: reg.Histogram("apds_serve_queue_wait_seconds",
			"Time a request waited in the coalescer queue before its flush started.",
			obs.ExpBuckets(1e-6, 2, 16)),
		queueDepth: reg.Gauge("apds_serve_queue_depth",
			"Requests currently waiting in the coalescer queue."),
		flushes: reg.CounterVec("apds_serve_flushes_total",
			"Coalescer flushes by trigger reason.", "reason"),
		rejected: reg.Counter("apds_serve_rejected_total",
			"Requests rejected with a full queue (backpressure)."),
		cancelled: reg.Counter("apds_serve_cancelled_total",
			"Queued requests dropped because their context ended before the flush."),
	}
}

func (m *Metrics) rows(n int) {
	if m != nil {
		m.batchRows.Observe(float64(n))
	}
}

func (m *Metrics) waited(d time.Duration) {
	if m != nil {
		m.queueWait.Observe(d.Seconds())
	}
}

func (m *Metrics) depth(n int) {
	if m != nil {
		m.queueDepth.Set(float64(n))
	}
}

func (m *Metrics) flushed(reason string) {
	if m != nil {
		m.flushes.With(reason).Inc()
	}
}

func (m *Metrics) reject() {
	if m != nil {
		m.rejected.Inc()
	}
}

func (m *Metrics) cancel() {
	if m != nil {
		m.cancelled.Inc()
	}
}
