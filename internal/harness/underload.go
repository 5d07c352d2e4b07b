package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/pssp"
)

// underLoadApps are the servers measured by UnderLoad: one web-server and
// one database analog, the representatives of Tables III and IV.
func underLoadApps() []apps.App {
	return []apps.App{apps.WebServers()[1], apps.Databases()[0]} // nginx, mysql
}

// underLoadWorkload is the scenario behind every UnderLoad cell: a closed
// loop of cfg.LoadClients clients issuing cfg.LoadRequests requests of the
// app's benign payload, sharded over 2 replica servers. The exponential
// think time (mean ~1 service time) makes the instantaneous queue depth
// vary, so the tail quantiles measure genuine queueing jitter instead of a
// degenerate constant backlog.
func underLoadWorkload(cfg Config, app apps.App) pssp.WorkloadConfig {
	return pssp.WorkloadConfig{
		Label:       app.Name,
		Mix:         []pssp.RequestClass{{Name: "benign", Weight: 1, Payload: app.Request}},
		Arrivals:    pssp.ArrivalsClosedLoop,
		Clients:     cfg.LoadClients,
		ThinkCycles: 6000,
		Requests:    cfg.LoadRequests,
		Shards:      2,
		Workers:     cfg.Workers,
		Seed:        cfg.Seed,
	}
}

// threeWayLoad load-tests one server app under each of the paper's three
// settings (see threeWay).
func threeWayLoad(cfg Config, app apps.App) (reports [3]*pssp.LoadReport, err error) {
	err = threeWay(cfg, app, func(ctx context.Context, m *pssp.Machine, img *pssp.Image, i int) error {
		var err error
		reports[i], err = m.LoadTest(ctx, img, underLoadWorkload(cfg, app))
		return err
	})
	return reports, err
}

// UnderLoad extends the paper's Table III/IV overhead story from mean
// per-request cycles to tail latency under contention: the same three
// settings, but measured by the loadgen engine under a closed-loop
// workload, so every sample includes queueing delay behind a busy
// fork-server and the table reports the p50/p99/p99.9 latency deltas and
// goodput that ApacheBench-style mean columns hide.
func UnderLoad(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Overhead under load: tail latency and goodput across P-SSP settings",
		Header: []string{
			"server", "setting", "p50 µs", "p99 µs", "p99.9 µs",
			"goodput req/Mcycle", "Δp99 vs native",
		},
		Notes: []string{
			"the paper reports means over sequential requests; this drives a closed loop",
			fmt.Sprintf("closed loop: %d clients, exponential think (mean 6000 cycles), %d requests, 2 shards",
				cfg.LoadClients, cfg.LoadRequests),
			"latency = virtual arrival→completion (queueing included), µs at 3.5 GHz",
		},
	}
	settings := [3]string{"native", "compiler", "instrumented"}
	for _, app := range underLoadApps() {
		reports, err := threeWayLoad(cfg, app)
		if err != nil {
			return nil, err
		}
		nativeP99 := reports[0].Latency.P99
		for i, rep := range reports {
			us := func(v uint64) string {
				return fmt.Sprintf("%.3f", float64(v)/CyclesPerMicrosecond)
			}
			t.Rows = append(t.Rows, []string{
				app.Name, settings[i],
				us(rep.Latency.P50), us(rep.Latency.P99), us(rep.Latency.P999),
				fmt.Sprintf("%.2f", rep.GoodputPerMcycle),
				pct(overheadVs(rep.Latency.P99, nativeP99)),
			})
			key := app.Name + "/" + settings[i]
			t.set(key+"/p50", float64(rep.Latency.P50))
			t.set(key+"/p99", float64(rep.Latency.P99))
			t.set(key+"/p999", float64(rep.Latency.P999))
			t.set(key+"/goodput", rep.GoodputPerMcycle)
			if rep.Crashes != 0 {
				return nil, fmt.Errorf("harness: %s/%s: %d benign requests crashed under load",
					app.Name, settings[i], rep.Crashes)
			}
		}
	}
	return t, nil
}
