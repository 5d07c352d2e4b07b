package daemon

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// daemonMetrics is the daemon's registry slice: fixed handles for the
// admission path (resolved once at construction, so the hot path never
// touches the registry's map) plus the trace sequence. The gauges are the
// authoritative storage for the running/queued counts — admission reads
// them back under d.mu, so there is no second copy to drift.
type daemonMetrics struct {
	running                     *obs.Gauge // daemon_jobs_running
	queued                      *obs.Gauge // daemon_queue_depth
	admitted                    *obs.Counter
	completed, failed, canceled *obs.Counter
	frontierEdges               *obs.Gauge    // latest whole fuzz round's merged frontier
	jobSeq                      atomic.Uint64 // flight-recorder trace ids
}

func newDaemonMetrics(reg *obs.Registry) *daemonMetrics {
	return &daemonMetrics{
		running:   reg.Gauge("daemon_jobs_running"),
		queued:    reg.Gauge("daemon_queue_depth"),
		admitted:  reg.Counter("daemon_jobs_admitted_total"),
		completed: reg.Counter(obs.Label("daemon_jobs_finished_total", "outcome", "completed")),
		failed:    reg.Counter(obs.Label("daemon_jobs_finished_total", "outcome", "failed")),
		canceled:  reg.Counter(obs.Label("daemon_jobs_finished_total", "outcome", "canceled")),

		frontierEdges: reg.Gauge("daemon_fuzz_frontier_edges"),
	}
}

// registerCollectors exposes the slow-moving state — pool occupancy, store
// traffic, per-tenant quota burn, uptime — as scrape-time series, leaving
// every per-operation path untouched.
func (d *Daemon) registerCollectors(reg *obs.Registry) {
	reg.Collect(func(emit func(name string, value float64)) {
		emit("daemon_uptime_seconds", time.Since(d.start).Seconds())
		ps := d.pool.stats()
		emit("daemon_pool_entries", float64(ps.Entries))
		emit("daemon_pool_capacity", float64(ps.Capacity))
		emit("daemon_pool_images", float64(ps.Images))
		emit("daemon_pool_hits_total", float64(ps.Hits))
		emit("daemon_pool_misses_total", float64(ps.Misses))
		emit("daemon_pool_evictions_total", float64(ps.Evictions))
		emit("daemon_pool_respawns_total", float64(ps.Respawns))
		d.tenantsMu.RLock()
		ts := make([]*tenant, 0, len(d.tenants))
		for _, t := range d.tenants {
			ts = append(ts, t)
		}
		d.tenantsMu.RUnlock()
		for _, t := range ts {
			emit(obs.Label("daemon_tenant_jobs_total", "tenant", t.name), float64(t.jobs.Load()))
			emit(obs.Label("daemon_tenant_running", "tenant", t.name), float64(t.running.Load()))
			emit(obs.Label("daemon_tenant_cycles_used_total", "tenant", t.name), float64(t.used.Load()))
		}
	})
	if d.cfg.Store != nil {
		d.cfg.Store.RegisterMetrics(reg)
	}
}

// Metrics returns the daemon's registry (the caller-provided one, or the
// private registry the daemon created so its stats are always
// registry-backed). Serve it with obs.Handler for /metrics.
func (d *Daemon) Metrics() *obs.Registry { return d.reg }

// Recorder returns the daemon's flight recorder (always present, bounded).
func (d *Daemon) Recorder() *obs.Recorder { return d.rec }

// beginTrace opens a flight-recorder trace for one job and returns it with
// its id. The id is the daemon's own job sequence — stable across
// connections, unlike per-connection request ids — and names a submitted
// job to status, aggregate and cancel.
func (d *Daemon) beginTrace(method string) (uint64, *obs.Trace) {
	id := d.met.jobSeq.Add(1)
	tr := d.rec.Begin(id, method)
	tr.Event("dispatch", 0, method)
	return id, tr
}
