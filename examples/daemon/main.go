// Daemon: the multi-tenant serving stack as a demo — a psspd daemon on a
// Unix socket, two tenants submitting attack and fuzz jobs through the
// client library, streamed progress events, the determinism contract
// (explicit seed ⇒ byte-identical to the local CLI run), per-tenant
// quota enforcement, and a stats snapshot of the image cache and warm pool.
//
// Run: go run ./examples/daemon
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

func main() {
	ctx := context.Background()

	// Serve a daemon on a private Unix socket, as `psspd -listen unix:...`
	// would. A tight victim-cycle quota makes the admission demo concrete.
	dir, err := os.MkdirTemp("", "psspd-example")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "psspd.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		fail(err)
	}
	d := daemon.New(daemon.Config{Seed: 1, MaxJobs: 2, QuotaCycles: 400_000})
	go d.Serve(lis)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(sctx)
	}()

	c, err := client.Dial("unix:" + sock)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	// Tenant "alice": an attack campaign with an explicit seed. The report
	// is byte-identical to what `psspattack -seed 7 -json` prints locally —
	// verify it on the spot.
	fmt.Println("=== alice: attack campaign via the daemon (seed 7) ===")
	var rep daemon.AttackReport
	err = c.Call(ctx, "attack", daemon.AttackParams{
		Scheme: "ssp", Budget: 2048, Repeats: 2, Workers: 2, Seed: 7,
	}, &rep, client.WithTenant("alice"))
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %d/%d replications recovered the canary (%d verified), %d oracle calls\n",
		rep.Successes, rep.Completed, rep.Verified, rep.OracleCalls)

	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemeSSP), pssp.WithAttackBudget(2048))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		fail(err)
	}
	res, err := m.Campaign(ctx, img, pssp.CampaignConfig{Replications: 2, Workers: 2})
	if err != nil {
		fail(err)
	}
	local, _ := json.Marshal(daemon.BuildAttackReport("nginx-vuln", pssp.SchemeSSP, 7, 2048, 2, 2, res))
	remote, _ := json.Marshal(rep)
	fmt.Printf("  byte-identical to the local run: %v\n", bytes.Equal(local, remote))

	// Tenant "bob": a fuzz job with streamed progress events.
	fmt.Println("=== bob: fuzz job with progress events ===")
	events := 0
	var fz daemon.FuzzResult
	err = c.Call(ctx, "fuzz", daemon.FuzzParams{Execs: 2048, Seed: 11}, &fz,
		client.WithTenant("bob"),
		client.WithEvents(func(ev daemon.ProgressEvent) { events++ }))
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %d execs, %d finding(s), %d edges; %d progress event(s) streamed\n",
		fz.Execs, len(fz.Findings), fz.Edges, events)

	// Alice's campaign spent past the daemon's victim-cycle quota; her next
	// job bounces with a typed error while bob still runs.
	fmt.Println("=== quota enforcement ===")
	err = c.Call(ctx, "attack", daemon.AttackParams{Scheme: "ssp", Seed: 8}, nil,
		client.WithTenant("alice"))
	fmt.Printf("  alice again: rejected=%v (%v)\n", errors.Is(err, client.ErrQuota), err)

	st, err := c.Stats(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("=== stats: %d completed, %d image(s) cached, pool %d/%d warm (hits %d, misses %d) ===\n",
		st.Completed, st.Pool.Images, st.Pool.Entries, st.Pool.Capacity, st.Pool.Hits, st.Pool.Misses)
	for _, t := range st.Tenants {
		fmt.Printf("  tenant %-6s jobs %d, cycles %d/%d\n", t.Name, t.Jobs, t.CyclesUsed, t.CyclesQuota)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "daemon example:", err)
	os.Exit(1)
}
