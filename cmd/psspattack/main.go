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
// draws the seed from the tenant's stream. The scenario flags are the
// attack kind's, declared once in cliutil and shared with `psspctl attack`.
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
	"flag"

	"repro/internal/cliutil"
)

func main() {
	job := cliutil.AttackJob(flag.CommandLine)
	conn := cliutil.ConnFlags(flag.CommandLine)
	flag.Parse()
	if err := conn.Run("psspattack", job); err != nil {
		cliutil.Fail("psspattack", err)
	}
}
