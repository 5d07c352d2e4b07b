package fuzz

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workpool"
)

// fakeTarget is a synthetic victim: inputs longer than bufLen "overflow" and
// crash (canary-detected at a fixed PC), shorter inputs survive with
// coverage that depends on the input length bucket — a controllable novelty
// signal. It is a pure function of the input, so shards stay deterministic.
type fakeTarget struct {
	bufLen int
	cov    vm.CovMap
}

func (f *fakeTarget) Execute(_ context.Context, input []byte) (Exec, *vm.CovMap, error) {
	f.cov.Reset()
	// Edge footprint: a base path plus one bucket per power-of-two length.
	f.cov.Hit(1)
	for l := len(input); l > 0; l >>= 1 {
		f.cov.Hit(uint16(16 + l%251))
	}
	ex := Exec{Cycles: uint64(100 + len(input)), Insts: uint64(10 + len(input))}
	if len(input) > f.bufLen {
		ex.Crashed = true
		ex.Detected = true
		ex.CrashPC = 0x4242
		ex.Kind = "abort (stack smashing detected)"
	}
	return ex, &f.cov, nil
}

func fakeBoot(bufLen int) Boot {
	return func(context.Context, int) (Executor, error) {
		return &fakeTarget{bufLen: bufLen}, nil
	}
}

func TestMutatorDeterministic(t *testing.T) {
	gen := func() [][]byte {
		m := &mutator{r: rng.NewStream(7, 0), dict: [][]byte{[]byte("tok")}, max: 64}
		parent := []byte("GET /")
		corpus := [][]byte{parent, []byte("PING")}
		var out [][]byte
		for i := 0; i < 200; i++ {
			out = append(out, append([]byte(nil), m.mutate(parent, corpus)...))
		}
		return out
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same stream produced different mutants")
	}
	grew := false
	for _, in := range a {
		if len(in) > 64 {
			t.Fatalf("mutant length %d exceeds cap 64", len(in))
		}
		if len(in) == 0 {
			t.Fatal("empty mutant")
		}
		if len(in) > 5 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no mutation ever grew the input — overflows would be unreachable")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) *Report {
		t.Helper()
		rep, err := Run(ctx, Config{
			Label:   "fake",
			Seeds:   [][]byte{[]byte("GET /")},
			Execs:   400,
			Shards:  4,
			Workers: workers,
			Seed:    2018,
		}, fakeBoot(16))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	if base.Execs == 0 || base.Edges == 0 {
		t.Fatalf("empty run: %+v", base)
	}
	if len(base.Findings) == 0 {
		t.Fatal("fuzzer never crashed the fake overflow target")
	}
	for _, w := range []int{4, 16} {
		if got := run(w); !reflect.DeepEqual(base, got) {
			t.Fatalf("report differs at %d workers:\n1:  %+v\n%d: %+v", w, base, w, got)
		}
	}
}

func TestTriageDedupesAndMinimizes(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("GET /")},
		Execs:  600,
		Shards: 2,
		Seed:   1,
	}, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	// One crash site (pc, kind, detected) — one finding, however many of
	// the 600 mutants crashed.
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1 (dedupe by crash site)", len(rep.Findings))
	}
	f := rep.Findings[0]
	if !f.Detected || f.CrashPC != 0x4242 {
		t.Fatalf("finding misclassified: %+v", f)
	}
	if rep.Crashes < 2 {
		t.Fatalf("crashes = %d, want several (dedupe must not hide the count)", rep.Crashes)
	}
	// Minimization: the shortest input that still crashes is bufLen+1, so
	// OverflowLen recovers bufLen exactly.
	if len(f.Minimized) != 17 {
		t.Fatalf("minimized length = %d, want 17", len(f.Minimized))
	}
	if f.OverflowLen() != 16 {
		t.Fatalf("OverflowLen = %d, want 16", f.OverflowLen())
	}
	// Normalization: minimized bytes are the canonical filler.
	if !bytes.Equal(f.Minimized[:16], bytes.Repeat([]byte{minFiller}, 16)) {
		t.Fatalf("minimized input not normalized: %q", f.Minimized)
	}
	if rep.ExecsToFirstCrash == 0 || rep.ExecsToFirstCrash > rep.Execs {
		t.Fatalf("ExecsToFirstCrash = %d out of range", rep.ExecsToFirstCrash)
	}
}

func TestCoverageNoveltyGrowsCorpus(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("GET /")},
		Execs:  300,
		Shards: 1,
		Seed:   3,
	}, fakeBoot(1<<20)) // effectively uncrashable: pure coverage search
	if err != nil {
		t.Fatal(err)
	}
	// The fake target's coverage varies with input length, so novelty
	// admission must have grown the corpus beyond the seed.
	if rep.CorpusSize <= 1 {
		t.Fatalf("corpus stayed at %d entries — novelty admission dead", rep.CorpusSize)
	}
	if rep.CorpusSize == rep.Execs {
		t.Fatal("every input admitted — novelty gating dead")
	}
	if len(rep.CorpusHashes) != rep.CorpusSize {
		t.Fatalf("corpus hashes %d != size %d", len(rep.CorpusHashes), rep.CorpusSize)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("uncrashable target produced findings: %+v", rep.Findings)
	}
}

func TestRunCancellationReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	boot := func(context.Context, int) (Executor, error) {
		return executorFunc(func(c context.Context, input []byte) (Exec, *vm.CovMap, error) {
			calls++
			if calls > 50 {
				cancel()
			}
			if err := c.Err(); err != nil {
				return Exec{}, nil, err
			}
			ft := fakeTarget{bufLen: 1 << 20}
			return ft.Execute(c, input)
		}), nil
	}
	rep, err := Run(ctx, Config{
		Seeds:  [][]byte{[]byte("x")},
		Execs:  100000,
		Shards: 1,
		Seed:   1,
	}, boot)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Execs == 0 || rep.Execs >= 100000 {
		t.Fatalf("partial report execs = %+v", rep)
	}
}

func TestRunBootFailureAborts(t *testing.T) {
	boom := errors.New("boom")
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("x")},
		Execs:  64,
		Shards: 2,
	}, func(context.Context, int) (Executor, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boot failure", err)
	}
	if rep == nil {
		t.Fatal("no partial report on boot failure")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, fakeBoot(4)); err == nil {
		t.Fatal("empty seed corpus accepted")
	}
	if _, err := Run(context.Background(), Config{Seeds: [][]byte{{}}}, fakeBoot(4)); err == nil {
		t.Fatal("empty seed input accepted")
	}
}

// executorFunc adapts a function to the Executor interface.
type executorFunc func(ctx context.Context, input []byte) (Exec, *vm.CovMap, error)

func (f executorFunc) Execute(ctx context.Context, input []byte) (Exec, *vm.CovMap, error) {
	return f(ctx, input)
}

func TestProgressStreamsExecsAndFindings(t *testing.T) {
	// Per-execution ticks respect ProgressEvery, shard completions always
	// fire, counters are monotone, and the callback leaves the
	// deterministic report bit-identical.
	cfg := Config{
		Label:         "fake",
		Seeds:         [][]byte{[]byte("GET /")},
		Execs:         400,
		Shards:        4,
		Workers:       4,
		Seed:          2018,
		ProgressEvery: 32,
	}
	var snaps []Progress
	cfg.Progress = func(p Progress) { snaps = append(snaps, p) }
	rep, err := Run(context.Background(), cfg, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Execs < snaps[i-1].Execs || snaps[i].ShardsDone < snaps[i-1].ShardsDone {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	last := snaps[len(snaps)-1]
	if last.ShardsDone != cfg.Shards || last.Shards != cfg.Shards {
		t.Fatalf("final snapshot %+v: want all %d shards done", last, cfg.Shards)
	}
	// Execs agree exactly; Crashes and Findings are per-shard running
	// figures — minimization probes included, pre-dedup — so they bound
	// the report's tallies from above.
	if last.Execs != rep.Execs || last.Crashes < rep.Crashes || last.Findings < len(rep.Findings) {
		t.Fatalf("final snapshot %+v disagrees with report (%d execs, %d crashes, %d findings)",
			last, rep.Execs, rep.Crashes, len(rep.Findings))
	}
	cfg.Progress, cfg.ProgressEvery = nil, 0
	silent, err := Run(context.Background(), cfg, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, silent) {
		t.Fatal("attaching a progress callback changed the deterministic report")
	}
}

func TestNilProgressMeterIsFree(t *testing.T) {
	// Disabled metering is the nil receiver: the per-execution hot path
	// must not allocate.
	var m *workpool.Meter[Progress]
	crashed, news := true, 3
	if n := testing.AllocsPerRun(100, func() {
		m.Tick(func(p *Progress) {
			if crashed {
				p.Crashes++
			}
		})
		m.Add(func(p *Progress) { p.Edges += news })
		m.Flush(func(p *Progress) { p.ShardsDone++ })
	}); n != 0 {
		t.Fatalf("nil meter allocated %.0f times per exec", n)
	}
}

// TestMergeRejectsMalformedPartial: a worker's partial crosses a trust
// boundary, so coverage that breaks the Cells codec is a typed error, never
// an index panic or silently empty coverage in the merge. A uint16 cell
// cannot lie past the 64 Ki map, so the codec's out-of-range record is one
// cut short by the end of the list.
func TestMergeRejectsMalformedPartial(t *testing.T) {
	cfg := Config{Label: "fake", Seeds: [][]byte{[]byte("GET /")}, Execs: 64, Shards: 2, Seed: 2018}
	parts, err := RunShards(context.Background(), cfg, fakeBoot(16), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := parts[0].Virgin
	if good.Len() < 2 {
		t.Fatalf("shard 0 set %d cells; the cases below need two", good.Len())
	}
	swapped := append(Cells(nil), good[3:6]...)
	swapped = append(append(swapped, good[:3]...), good[6:]...)
	zero := append(Cells(nil), good...)
	zero[5] = 0
	stale := make([]byte, vm.CovMapSize)
	stale[1] = 1
	for name, cov := range map[string]Cells{
		"record cut short (cell out of range)": good[:len(good)-1],
		"cells out of order":                   swapped,
		"duplicated cell":                      append(append(Cells(nil), good[:3]...), good...),
		"zero bits":                            zero,
		"stale dense map":                      stale,
		"stale dense empty map":                make([]byte, vm.CovMapSize),
	} {
		bad := *parts[0]
		bad.Virgin = cov
		rep, err := MergePartials(cfg, []*Partial{&bad, parts[1]})
		if !errors.Is(err, ErrMalformedPartial) || !errors.Is(err, ErrMalformedCells) || rep != nil {
			t.Errorf("%s: merge = %v, %v; want ErrMalformedPartial", name, rep, err)
		}
	}
}

// TestMergeCovSparseMatchesFullScan is the property behind the sparse
// merge: on random hit patterns — none, a few buckets, a request's ~140, the
// whole map, saturated counters — merging an exec's touched list into a
// random frontier sets the same virgin bits and counts the same new bits as
// a scan of all 64 KiB.
func TestMergeCovSparseMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(2018))
	var cov vm.CovMap
	sizes := []int{0, 1, 2, 140, 500, 4096, vm.CovMapSize / 2, vm.CovMapSize - 1, vm.CovMapSize}
	for trial := 0; trial < 40; trial++ {
		n := sizes[trial%len(sizes)]
		cov.Reset()
		for _, i := range r.Perm(vm.CovMapSize)[:n] {
			k := 1 + r.Intn(40)
			if r.Intn(8) == 0 {
				k = 255 + r.Intn(100) // saturates at 0xff
			}
			for ; k > 0; k-- {
				cov.Hit(uint16(i))
			}
		}
		sparse := make([]byte, vm.CovMapSize)
		for i := range sparse {
			if r.Intn(4) == 0 {
				sparse[i] = byte(r.Intn(256))
			}
		}
		full := append([]byte(nil), sparse...)
		want := 0
		for i, h := range cov.Bytes() {
			if b := bucket(h); h != 0 && full[i]&b == 0 {
				full[i] |= b
				want++
			}
		}
		if got := mergeCov(sparse, &cov); got != want || !bytes.Equal(sparse, full) {
			t.Fatalf("trial %d (%d buckets): sparse merge news=%d, full scan news=%d, virgin equal=%v",
				trial, n, got, want, bytes.Equal(sparse, full))
		}
	}
}
