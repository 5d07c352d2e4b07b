// Command psspattack runs attack campaigns against the vulnerable server
// analogs and reports the outcome — the CLI face of the paper's §VI-C
// effectiveness experiment, built on the public pssp facade.
//
// A campaign is -repeats independent replications of the selected adversary
// strategy, each against a freshly derived victim machine, sharded over
// -workers concurrent oracles. For a fixed -seed the aggregates are
// bit-identical at any worker count.
//
// Every run is a job on a psspd daemon: with -remote the daemon at that
// address, otherwise one served in process (over a pipe, with -store as its
// artifact store). It is the same job path either way, so for a fixed
// explicit -seed the output (including -json) is byte-identical; -seed 0
// draws the seed from the tenant's stream.
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
		seed     = flag.Uint64("seed", 1, "simulation seed (0 = drawn from the tenant's seed stream)")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name presented to the daemon (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspattack", err) }

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	c, stop, err := cliutil.Connect("psspattack", *remote, *storeDir)
	if err != nil {
		fail(err)
	}
	defer stop()
	p := daemon.AttackParams{
		Target: *target, Scheme: s.String(), Strategy: *strategy,
		Budget: *budget, Repeats: *repeats, Workers: *workers, Seed: *seed,
	}
	if !*jsonOut {
		fmt.Printf("attacking %s (scheme %s) with %s: %d replication(s), budget %d trials each...\n",
			*target, s, *strategy, *repeats, *budget)
	}
	var rep daemon.AttackReport
	if err := c.Call(context.Background(), "attack", p, &rep, client.WithTenant(*tenant)); err != nil {
		fail(err)
	}
	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, rep); err != nil {
			fail(err)
		}
		return
	}
	cliutil.PrintAttack(rep)
}
