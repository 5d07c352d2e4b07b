// Command psspattack runs attack campaigns against the vulnerable server
// analogs and reports the outcome — the CLI face of the paper's §VI-C
// effectiveness experiment, built on the public pssp facade.
//
// A campaign is -repeats independent replications of the selected adversary
// strategy, each against a freshly derived victim machine, sharded over
// -workers concurrent oracles. For a fixed -seed the aggregates are
// bit-identical at any worker count.
//
// With -remote the campaign runs as a job on a psspd daemon instead of
// in-process; for a fixed explicit -seed the output (including -json) is
// byte-identical to the local run.
//
// Usage:
//
//	psspattack -target nginx-vuln -scheme ssp
//	psspattack -target ali-vuln -scheme p-ssp -budget 8192
//	psspattack -scheme ssp -strategy chunk -repeats 16 -workers 8
//	psspattack -scheme p-ssp -strategy adaptive -repeats 32 -json
//	psspattack -remote unix:/tmp/psspd.sock -tenant ci -repeats 8 -json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

func strategyHelp() string {
	var b strings.Builder
	b.WriteString("adversary strategy:")
	for _, s := range pssp.AttackStrategies() {
		fmt.Fprintf(&b, "\n    %-12s %s", s.Name, s.Description)
	}
	return b.String()
}

func main() {
	var (
		target   = flag.String("target", "nginx-vuln", "nginx-vuln | ali-vuln")
		scheme   = flag.String("scheme", "ssp", "protection scheme of the victim")
		strategy = flag.String("strategy", "byte-by-byte", strategyHelp())
		budget   = flag.Int("budget", 4096, "maximum trials per replication")
		repeats  = flag.Int("repeats", 1, "independent campaign replications")
		workers  = flag.Int("workers", 0, "concurrent oracle shards (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspattack", err) }

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	if *remote != "" && *storeDir != "" {
		fail(fmt.Errorf("-store applies to local runs; a psspd daemon manages its own store (psspd -store)"))
	}

	// One wire-param set drives both paths, so a local campaign and a
	// -remote job resolve the same scenario.
	p := daemon.AttackParams{
		Target: *target, Scheme: s.String(), Strategy: *strategy,
		Budget: *budget, Repeats: *repeats, Workers: *workers, Seed: *seed,
	}
	var rep daemon.AttackReport
	if *remote != "" {
		c, err := client.Dial(*remote)
		if err != nil {
			fail(err)
		}
		defer c.Close()
		if !*jsonOut {
			fmt.Printf("attacking %s (scheme %s) with %s on %s: %d replication(s), budget %d trials each...\n",
				*target, s, *strategy, *remote, *repeats, *budget)
		}
		if err := c.Call(context.Background(), "attack", p, &rep, client.WithTenant(*tenant)); err != nil {
			fail(err)
		}
	} else {
		opts := []pssp.Option{
			pssp.WithSeed(*seed),
			pssp.WithScheme(s),
			pssp.WithAttackBudget(*budget),
		}
		if *storeDir != "" {
			st, err := pssp.OpenStore(*storeDir)
			if err != nil {
				fail(err)
			}
			opts = append(opts, pssp.WithStore(st))
		}
		m := pssp.NewMachine(opts...)
		ctx := context.Background()
		img, err := m.Pipeline().CompileApp(*target).Image()
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("attacking %s (scheme %s) with %s: %d replication(s), budget %d trials each...\n",
				*target, s, *strategy, *repeats, *budget)
		}
		res, err := m.Campaign(ctx, img, p.CampaignConfig(*seed))
		if err != nil {
			fail(err)
		}
		rep = daemon.BuildAttackReport(*target, s, *seed, *budget, *repeats, *workers, res)
	}

	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, rep); err != nil {
			fail(err)
		}
		return
	}
	printReport(rep)
}

// printReport renders the human output from the report shape shared with
// the daemon, so local and remote campaigns print identically.
func printReport(rep daemon.AttackReport) {
	if rep.Canceled {
		fmt.Printf("CANCELED after %d/%d replications; partial aggregate follows\n",
			rep.Completed, rep.Replications)
	}
	if rep.Successes > 0 {
		ts := rep.TrialsToSuccess
		fmt.Printf("SUCCESS in %d/%d replications (rate %.2f, %d verified against the real canary)\n",
			rep.Successes, rep.Completed, rep.SuccessRate, rep.Verified)
		fmt.Printf("trials to success: min %.0f / median %.0f / p95 %.0f\n",
			ts.Min, ts.Median, ts.P95)
	} else {
		fmt.Printf("FAILED in all %d replications within the %d-trial budget\n", rep.Completed, rep.Budget)
	}
	fmt.Printf("oracle calls %d, detection rate %.3f, victim cycles %d\n",
		rep.OracleCalls, rep.DetectRate, rep.Cycles)
	if rep.OracleErrors > 0 {
		fmt.Printf("WARNING: %d replication(s) lost to oracle failures (first: %s)\n",
			rep.OracleErrors, rep.OracleError)
	}
	for _, out := range rep.Outcomes {
		state := "failed"
		switch {
		case out.Success && out.Verified:
			state = "success"
		case out.Success:
			state = "UNVERIFIED" // survived, but the recovered word is not the canary
		}
		fmt.Printf("  rep %2d: %-10s trials %-5d", out.Rep, state, out.Trials)
		if out.Restarts > 0 {
			fmt.Printf(" restarts %d", out.Restarts)
		}
		if !out.Success && out.FailedAt >= 0 {
			fmt.Printf(" stalled at byte %d", out.FailedAt)
		}
		fmt.Println()
	}
}
