// Command psspload drives the virtual-time load-generation subsystem: it
// boots replica fork-servers for a built-in app and pushes a traffic mix —
// benign request classes, optionally interleaved with live attack-strategy
// probes — through an open- or closed-loop arrival model, reporting
// tail-latency histograms, offered-vs-achieved throughput, and per-class
// crash/detection counters. All in victim cycles: for a fixed -seed the
// report is bit-identical at any -workers count.
//
// Every run is a loadtest job on a psspd daemon: with -remote the daemon at
// that address, otherwise one served in process (over a pipe, with -store
// as its artifact store). It is the same job path either way, so for a
// fixed explicit -seed the output (including -json) is byte-identical;
// -seed 0 draws the seed from the tenant's stream.
//
// Usage:
//
//	psspload -app nginx -arrivals poisson -rate 20 -requests 512
//	psspload -app mysql -arrivals closed -clients 16 -think 5000
//	psspload -app nginx-vuln -scheme p-ssp -mix 'benign:3,probe=adaptive:1'
//	psspload -app nginx -arrivals uniform -rate 10 -sweep 0.5,1,2,4,8 -json
//	psspload -remote unix:/tmp/psspd.sock -tenant ci -requests 256 -json
//
// The -mix grammar is comma-separated class:weight items, where a class is
// either "benign" (the app's built-in request payload) or "probe=NAME" with
// NAME a registered attack strategy (see psspattack's -strategy help). It is
// parsed by the shared cliutil.ParseMix, the same weighted-spec grammar
// psspfuzz's -seeds/-dict flags use. The scenario flags are the loadtest
// kind's, declared once in cliutil and shared with `psspctl loadtest`.
package main

import (
	"flag"

	"repro/internal/cliutil"
)

func main() {
	job := cliutil.LoadJob(flag.CommandLine)
	conn := cliutil.ConnFlags(flag.CommandLine)
	flag.Parse()
	if err := conn.Run("psspload", job); err != nil {
		cliutil.Fail("psspload", err)
	}
}
