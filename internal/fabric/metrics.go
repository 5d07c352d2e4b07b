package fabric

import (
	"fmt"

	"repro/internal/obs"
)

// fabricMetrics is the coordinator's registry slice: one atomic per fact.
// The lease counters are the storage Stats reads back, so the stats RPC
// and the exposition cannot disagree.
type fabricMetrics struct {
	leasesIssued     *obs.Counter
	leasesReassigned *obs.Counter
	watchdogResets   *obs.Counter
	workersLost      *obs.Counter
	leaseLatency     *obs.SyncHist // ns per completed lease
}

func newFabricMetrics(reg *obs.Registry) *fabricMetrics {
	return &fabricMetrics{
		leasesIssued:     reg.Counter("fabric_leases_issued_total"),
		leasesReassigned: reg.Counter("fabric_leases_reassigned_total"),
		watchdogResets:   reg.Counter("fabric_watchdog_resets_total"),
		workersLost:      reg.Counter("fabric_workers_lost_total"),
		leaseLatency:     reg.Hist("fabric_lease_latency_ns"),
	}
}

// registerCollectors emits the per-worker view (shards/sec, liveness) at
// scrape time, straight from the same snapshot the stats RPC serves.
func (c *Coordinator) registerCollectors(reg *obs.Registry) {
	reg.Collect(func(emit func(name string, value float64)) {
		st := c.Stats()
		alive := 0
		for _, w := range st.Workers {
			if w.Alive {
				alive++
			}
			emit(obs.Label("fabric_worker_shards_done_total", "worker", w.Name), float64(w.ShardsDone))
			emit(obs.Label("fabric_worker_shards_per_sec", "worker", w.Name), w.ShardsPerSec)
		}
		emit("fabric_workers_alive", float64(alive))
	})
}

// leaseRange renders a lease's shard range for trace details.
func leaseRange(lo, hi int) string { return fmt.Sprintf("[%d,%d)", lo, hi) }
