package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/daemon"
	"repro/pssp"
)

// The fuzz workload: one client runs Machine.Fuzz back to back on
// nginx-vuln under ssp, with coverage on, many execs over a few shards.
// Every run must find the overflow and triage it to the buffer size.
const (
	fuzzApp    = "nginx-vuln"
	fuzzExecs  = 2048
	fuzzShards = 4
	// fuzzFiller is the byte the fuzzer's minimizer normalizes inputs to.
	fuzzFiller = 'A'
)

func init() {
	register(&workload{
		name:      "fuzz",
		kinds:     []string{"fuzz"},
		perSecond: 27,
		jobs: func(seed uint64, n int) []job {
			out := make([]job, n)
			for i := range out {
				out[i] = job{seed: nonzero(seed, uint64(i))}
			}
			return out
		},
		setUp: func(ctx context.Context, tr *tracer, _ string, _ uint64) (env, error) {
			e := &fuzzEnv{m: pssp.NewMachine()}
			img, err := compileAndBoot(ctx, tr, e.m, fuzzApp, pssp.SchemeSSP)
			if err != nil {
				return nil, err
			}
			e.img = img
			return e, nil
		},
	})
}

type fuzzEnv struct {
	m   *pssp.Machine
	img *pssp.Image
}

func (e *fuzzEnv) close() { e.m.Close() }

func (e *fuzzEnv) do(ctx context.Context, j job, tr *tracer, parent int32) ([]byte, int, error) {
	cfg := pssp.FuzzConfig{Execs: fuzzExecs, Shards: fuzzShards, Workers: jobWorkers, Seed: j.seed}
	var rep *pssp.FuzzReport
	var err error
	if tr == nil {
		rep, err = e.m.Fuzz(ctx, e.img, cfg)
	} else {
		rep, err = fuzzTriple(ctx, tr, parent, e.m, e.img, cfg, jobWorkers)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := checkFuzz(rep); err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(daemon.FuzzResult{FuzzReport: rep})
	return b, rep.Execs, err
}

// checkFuzz requires the nginx-vuln overflow among the findings: a
// canary-detected crash whose minimized input overflows the buffer. The
// minimizer normalizes bytes to the filler, so when the victim canary's low
// bytes happen to equal the filler (1 victim in 256 per byte) the shortest
// crashing input runs that many filler bytes past the buffer; the overflow
// still starts at the buffer size.
func checkFuzz(rep *pssp.FuzzReport) error {
	for _, f := range rep.Findings {
		n := f.OverflowLen()
		if f.Detected && n >= pssp.VulnServerBufSize && n < pssp.VulnServerBufSize+8 &&
			allFiller(f.Minimized[pssp.VulnServerBufSize:n]) {
			return nil
		}
	}
	return fmt.Errorf("no canary-detected finding overflowing at byte %d among %d findings (%d execs)",
		pssp.VulnServerBufSize, len(rep.Findings), rep.Execs)
}

func allFiller(b []byte) bool {
	for _, c := range b {
		if c != fuzzFiller {
			return false
		}
	}
	return true
}
