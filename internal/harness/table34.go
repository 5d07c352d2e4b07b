package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/workpool"
	"repro/pssp"
)

// threeWay runs measure once per setting of the paper's three — native
// (SSP default), compiler-based P-SSP, and instrumentation-based P-SSP —
// with app built under that setting. The settings run concurrently, one
// Machine each; the seeds match the sequential formulation so results are
// bit-identical.
func threeWay(cfg Config, app apps.App, measure func(ctx context.Context, m *pssp.Machine, img *pssp.Image, setting int) error) error {
	builds := [3]func(m *pssp.Machine) (*pssp.Image, error){
		func(m *pssp.Machine) (*pssp.Image, error) {
			return m.Compile(app.Prog, pssp.CompileScheme(core.SchemeSSP))
		},
		func(m *pssp.Machine) (*pssp.Image, error) {
			return m.Compile(app.Prog, pssp.CompileScheme(core.SchemePSSP))
		},
		func(m *pssp.Machine) (*pssp.Image, error) {
			return m.Pipeline().
				Compile(app.Prog, pssp.CompileScheme(core.SchemeSSP)).
				Rewrite().
				Image()
		},
	}
	return workpool.Run(context.Background(), len(builds), len(builds), func(ctx context.Context, i int) error {
		m := cfg.machine(pssp.WithSeed(cfg.Seed + uint64(i)))
		img, err := builds[i](m)
		if err != nil {
			return err
		}
		if err := measure(ctx, m, img, i); err != nil {
			return fmt.Errorf("%s setting %d: %w", app.Name, i, err)
		}
		return nil
	})
}

// threeWayServer measures one server app's average request cycles and
// worker memory footprint under each of the three settings.
func threeWayServer(cfg Config, app apps.App, requests int) (avg [3]float64, mem [3]int, err error) {
	err = threeWay(cfg, app, func(ctx context.Context, m *pssp.Machine, img *pssp.Image, i int) error {
		var err error
		avg[i], mem[i], err = serverStats(ctx, m, img, app.Request, requests)
		return err
	})
	return avg, mem, err
}

// Table3 reproduces the paper's Table III: web-server response time under
// native, compiler-based P-SSP and instrumentation-based P-SSP. The paper
// stresses Apache2/Nginx with ApacheBench (100k requests); we measure
// per-request worker CPU time (µs at the testbed's 3.5 GHz), the component
// the canary scheme can affect.
func Table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table III: P-SSP's performance impact on web servers (avg per-request CPU µs)",
		Header: []string{"server", "native", "compiler P-SSP", "instrumented P-SSP"},
		Notes: []string{
			"paper (ms incl. network): apache2 33.006/33.008/33.099, nginx 3.088/3.090/3.088",
			fmt.Sprintf("measured over %d requests/server", cfg.WebRequests),
		},
	}
	for _, app := range apps.WebServers() {
		avg, _, err := threeWayServer(cfg, app, cfg.WebRequests)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%.3f", avg[0]/CyclesPerMicrosecond),
			fmt.Sprintf("%.3f", avg[1]/CyclesPerMicrosecond),
			fmt.Sprintf("%.3f", avg[2]/CyclesPerMicrosecond),
		})
		t.set(app.Name+"/native", avg[0])
		t.set(app.Name+"/compiler", avg[1])
		t.set(app.Name+"/instrumented", avg[2])
	}
	return t, nil
}

// Table4 reproduces the paper's Table IV: database query time and memory
// usage under the same three settings.
func Table4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Table IV: P-SSP's performance impact on database servers",
		Header: []string{
			"db", "native µs", "native KB", "compiler µs", "compiler KB",
			"instrumented µs", "instrumented KB",
		},
		Notes: []string{
			"paper: MySQL 3.33ms/22.59MB and SQLite 167.27ms/20.58MB, unchanged across settings",
			fmt.Sprintf("measured over %d queries/db", cfg.DBQueries),
		},
	}
	for _, app := range apps.Databases() {
		avg, mem, err := threeWayServer(cfg, app, cfg.DBQueries)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%.2f", avg[0]/CyclesPerMicrosecond),
			fmt.Sprintf("%.1f", float64(mem[0])/1024),
			fmt.Sprintf("%.2f", avg[1]/CyclesPerMicrosecond),
			fmt.Sprintf("%.1f", float64(mem[1])/1024),
			fmt.Sprintf("%.2f", avg[2]/CyclesPerMicrosecond),
			fmt.Sprintf("%.1f", float64(mem[2])/1024),
		})
		t.set(app.Name+"/native", avg[0])
		t.set(app.Name+"/compiler", avg[1])
		t.set(app.Name+"/instrumented", avg[2])
		t.set(app.Name+"/mem/native", float64(mem[0]))
		t.set(app.Name+"/mem/instrumented", float64(mem[2]))
	}
	return t, nil
}
