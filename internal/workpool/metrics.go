package workpool

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// serviceHist, when installed, records every unit's wall-clock service
// time in nanoseconds. Package-level because the pool is a leaf shared by
// all three engines — threading a handle through each would spread an
// observability argument across every engine signature.
var serviceHist atomic.Pointer[obs.SyncHist]

// SetMetrics installs (or, with a nil registry, removes) the shard
// service-time histogram. The disabled path in the worker loop is one
// atomic load and nil check per unit; timestamps are only taken when a
// histogram is installed. Wall time is recorded, not virtual cycles: the
// histogram answers "where did real seconds go", the reports answer the
// deterministic question.
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		serviceHist.Store(nil)
		return
	}
	serviceHist.Store(reg.Hist("workpool_unit_service_ns"))
}

// runTimed executes one unit, recording its service time when a histogram
// is installed.
func runTimed(ctx context.Context, unit int, run func(ctx context.Context, unit int) error) error {
	h := serviceHist.Load()
	if h == nil {
		return run(ctx, unit)
	}
	start := time.Now()
	err := run(ctx, unit)
	h.Record(uint64(time.Since(start)))
	return err
}
