// Command psspfuzz drives the coverage-guided fuzzing subsystem: it boots
// replica fork-servers for a built-in app with the VM's edge-coverage map
// enabled, mutates a seed corpus over sharded deterministic streams, and
// reports the coverage frontier, the admitted corpus, and the deduplicated,
// minimized crash findings — including the buffer length each overflow
// finding hands to the attack layer (psspattack/Machine.Campaign).
//
// Usage:
//
//	psspfuzz -app nginx-vuln -scheme ssp -execs 4096
//	psspfuzz -app ali-vuln -scheme ssp -seed 7 -workers 8 -json
//	psspfuzz -app nginx-vuln -seeds 'GET /:2,PING' -dict 'Host:,HTTP/1.1'
//	psspfuzz -app nginx-vuln -duration 10s
//	psspfuzz -app nginx-vuln -store /var/cache/pssp -corpus ./corpus
//	psspfuzz -app nginx-vuln -execs 512 -until-stall 2 -corpus ./corpus
//	psspfuzz -remote unix:/tmp/psspd.sock -tenant ci -execs 4096 -json
//
// Every run is a fuzz job on a psspd daemon: with -remote the daemon at
// that address, otherwise one served in process (over a pipe, with -store
// as its artifact store). It is the same job path either way, so for a
// fixed explicit -seed the output (including -json) is byte-identical;
// -seed 0 draws the seed from the tenant's stream.
//
// -seeds and -dict use the shared weighted-spec grammar of psspload's -mix
// ("item" or "item:weight" entries, comma-separated); a seeds/dict weight
// replicates the entry, biasing uniform draws toward it. For a fixed -seed
// an exec-bounded run's report is bit-identical at any -workers count;
// -duration time-boxes the run in wall-clock time instead, trading that
// determinism for a budget in seconds.
//
// -store names a content-addressed artifact store: the victim image is
// compiled at most once per (app, scheme, toolchain) across every run and
// process sharing the directory, served from mmap'd blobs afterwards.
// -corpus names a persistent corpus directory, deduplicated by input
// content hash and carrying the merged coverage frontier: a rerun loads the
// saved inputs as extra seeds and resumes from the recorded frontier
// instead of rediscovering it, then folds its own discoveries back in (a
// time-boxed run's too). The path resolves on the host that runs the job —
// the daemon's, with -remote. -until-stall reruns exec-bounded rounds,
// each reseeded from the growing corpus, until the frontier stalls; its
// per-round lines go to the job's flight-recorder trace. Store and corpus
// status go to stderr; the -json report shape never changes, so fixed-seed
// runs stay byte-comparable. The scenario flags are the fuzz kind's,
// declared once in cliutil and shared with `psspctl fuzz`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/store"
)

func main() {
	job := cliutil.FuzzJob(flag.CommandLine)
	conn := cliutil.ConnFlags(flag.CommandLine)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspfuzz", err) }

	p, err := job.Params()
	if err != nil {
		fail(err)
	}
	if corpus := p.(daemon.FuzzParams).CorpusDir; corpus != "" && conn.Remote == "" {
		saved, resumed := corpusStatus(corpus, fail)
		fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: %d saved input(s), frontier %s\n", corpus, saved, resumed)
		defer func() {
			now, _ := corpusStatus(corpus, fail)
			fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: +%d new input(s), frontier merged\n", corpus, now-saved)
		}()
	}
	if err := conn.Run("psspfuzz", job); err != nil {
		fail(err)
	}
}

// corpusStatus reads the corpus directory for the stderr status lines: its
// saved input count and whether it holds a frontier to resume from.
func corpusStatus(dir string, fail func(error)) (saved int, frontier string) {
	corp, err := store.OpenCorpus(dir)
	if err != nil {
		fail(err)
	}
	inputs, virgin, err := corp.Load()
	if err != nil {
		fail(err)
	}
	if virgin == nil {
		return len(inputs), "fresh"
	}
	return len(inputs), "resumed"
}
