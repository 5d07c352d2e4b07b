// Command perfbench is the repository's end-to-end benchmark. Each workload
// runs a fixed, seed-derived list of jobs in a closed loop through the
// public surfaces (facade, daemon, client, fabric), checks every report,
// and prints its end-to-end metrics (-trace 0) or the per-layer ladder of a
// separately traced run of the same jobs (-trace 1). See README.md beside
// this file for the workloads, the metrics and the choices that keep them
// steady.
//
//	go build -o perfbench . && ./perfbench -workload attack -seed 1 -seconds 12 -trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/rng"
)

// job is one unit of closed-loop work: a workload-defined kind, the
// explicit seed that fixes its report, and, on serve, the connection (and
// tenant) it is sent on.
type job struct {
	kind int
	seed uint64
	conn int
}

// env is a set-up workload, ready for its first job.
type env interface {
	// do runs one job — traced through the finer seams when tr is non-nil,
	// under span parent — checks its report, and returns the report's
	// deterministic bytes and the fork-server requests it counted.
	do(ctx context.Context, j job, tr *tracer, parent int32) (report []byte, requests int, err error)
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name  string
	kinds []string
	// perSecond sizes the job list: jobs per second of -seconds.
	perSecond float64
	// jobs returns the first n jobs for the run's seed.
	jobs func(seed uint64, n int) []job
	// setUp builds the workload from nothing: cold compiles, boots, daemons
	// and attached clients or workers.
	setUp func(ctx context.Context, tr *tracer, dir string, seed uint64) (env, error)
}

// extraPasser is implemented by envs that check their reports against
// another path's (in-process Do beside the socket, local facade beside the
// fabric). want holds the untraced run's per-job report digests, which
// those passes must reproduce. With tr nil, extra makes only the checks
// every run makes, outside the timed phase; with a tracer it adds the
// traced run's passes.
type extraPasser interface {
	extra(ctx context.Context, jobs []job, want [][sha256.Size]byte, tr *tracer) error
}

// counterSource is implemented by envs exposing cumulative counters (pool
// hits, leases) whose deltas over the traced replay feed the ladder.
type counterSource interface {
	counters() map[string]float64
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// Run parameters shared by every workload.
const (
	// A run repeats the cold set-up at least minSetups times, and more
	// until setupSpan of wall time has passed, half of it before the timed
	// phase and half after. setup_s is taken over the means of setupGroup
	// consecutive set-ups, which a few slow set-ups do not move.
	minSetups  = 60
	setupSpan  = 2 * time.Second
	setupGroup = 10
	// windows splits the timed phase into equal spans of wall time; the
	// end-to-end rates and latency quantiles are taken over the jobs of the
	// keptWindows with the most fork-server requests per second, so that
	// bursts of outside load that slow some windows do not move them.
	windows     = 20
	keptWindows = windows / 2
	// warmupJobs per client run untimed before the timed phase.
	warmupJobs = 6
	// allocJobs of each kind run in a traced run's serial pass.
	allocJobs = 2
	// jobWorkers is every job's shard worker count, and each workload runs
	// one job at a time. The host's two virtual CPUs give between one and
	// two CPUs' worth of parallel throughput from minute to minute, while
	// one thread's speed holds; see README.md.
	jobWorkers = 1
	// The traced run's extra passes replay the first 1/extraShare of the
	// jobs, which hold every kind in its share.
	extraShare = 4
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: attack, fuzz, serve or fabric")
		seed    = flag.Uint64("seed", 1, "workload seed; every job seed derives from it")
		seconds = flag.Int("seconds", 12, "run length the job lists are sized for")
		trace   = flag.Int("trace", 0, "1: print the traced per-layer ladder instead of the end-to-end metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one closed-loop execution of the job list.
type pass struct {
	wall time.Duration
	// Per job: latency, completion time since the pass started, kind,
	// fork-server requests, and report digest.
	lat     []time.Duration
	done    []time.Duration
	kinds   []int
	reqs    []int
	sums    [][sha256.Size]byte
	failed  int
	digest  string
	mallocs uint64
	errs    []error
}

// runPass executes jobs one after another, as one closed-loop client.
func runPass(ctx context.Context, e env, jobs []job, kinds []string, tr *tracer) *pass {
	p := &pass{
		lat:   make([]time.Duration, len(jobs)),
		done:  make([]time.Duration, len(jobs)),
		kinds: make([]int, len(jobs)),
		reqs:  make([]int, len(jobs)),
		sums:  make([][sha256.Size]byte, len(jobs)),
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		id := tr.begin("job."+kinds[j.kind], -1)
		report, n, err := e.do(ctx, j, tr, id.id)
		tr.end(id)
		p.lat[i] = time.Since(t0)
		p.done[i] = time.Since(start)
		p.kinds[i] = j.kind
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("job %d (%s, seed %d): %w", i, kinds[j.kind], j.seed, err))
			continue
		}
		p.reqs[i] = n
		p.sums[i] = sha256.Sum256(report)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - before
	p.failed = len(p.errs)

	h := sha256.New()
	for i := range p.sums {
		h.Write(p.sums[i][:])
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// run sets the workload up and warms it, times cold
// set-ups around the timed pass, checks the reports, and — when traced —
// replays the same jobs through the traced seams, then serially.
func run(ctx context.Context, w *workload, seed uint64, seconds int, traced bool) (*result, error) {
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The run's own set-up and its untimed warm-up jobs. In a traced run
	// every set-up records cc and boot spans.
	var setupTr *tracer
	if traced {
		setupTr = newTracer(false)
	}
	e, err := w.setUp(ctx, setupTr, filepath.Join(dir, "run"), seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	jobs := w.jobs(seed, int(math.Ceil(w.perSecond*float64(seconds))))
	if wp := runPass(ctx, e, jobs[:min(warmupJobs, len(jobs))], w.kinds, nil); wp.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", errors.Join(wp.errs...))
	}

	// Set-up time, sampled before and after the timed phase so that it
	// spans the host's state over the whole run, as the timed metrics do.
	setupTimes, err := timeSetUps(ctx, w, setupTr, filepath.Join(dir, "a"), seed)
	if err != nil {
		return nil, err
	}
	base := runPass(ctx, e, jobs, w.kinds, nil)
	for _, err := range base.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %v\n", w.name, err)
	}
	after, err := timeSetUps(ctx, w, setupTr, filepath.Join(dir, "b"), seed)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, after...)
	var setupMeans []float64
	for i := 0; i+setupGroup <= len(setupTimes); i += setupGroup {
		setupMeans = append(setupMeans, mean(setupTimes[i:i+setupGroup]))
	}
	// The median of the faster half of the groups, for the reason the
	// timed metrics keep the faster half of their windows.
	sort.Float64s(setupMeans)
	setup := quantile(setupMeans, 0.25)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d set-ups, median %.0fus, faster-half median of means %.0fus\n",
		w.name, len(setupTimes), median(setupTimes)*1e6, setup*1e6)
	correct := base.failed == 0
	x, hasExtra := e.(extraPasser)
	if hasExtra && correct {
		if err := x.extra(ctx, jobs, base.sums, nil); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: checks: %v\n", w.name, err)
			correct = false
		}
	}
	attempted := len(base.lat)
	fmt.Printf("digest workload=%s seed=%d jobs=%d sha256=%s\n", w.name, seed, attempted, base.digest)
	fmt.Fprintf(os.Stderr, "perfbench: %s: attempted=%d failed=%d wall=%.3fs\n", w.name, attempted, base.failed, base.wall.Seconds())
	printKinds(base, w.kinds)

	if !traced {
		return &result{
			Correct: correct, Attempted: attempted, Failed: base.failed,
			Metrics: endToEnd(base, setup),
		}, nil
	}

	tr := newTracer(false)
	var before map[string]float64
	cs, hasCounters := e.(counterSource)
	if hasCounters {
		before = cs.counters()
	}
	tp := runPass(ctx, e, jobs, w.kinds, tr)
	if hasCounters {
		for k, v := range cs.counters() {
			tr.add(k, v-before[k])
		}
	}
	for _, err := range tp.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced job failed: %v\n", w.name, err)
	}
	fmt.Printf("digest workload=%s seed=%d jobs=%d sha256=%s traced\n", w.name, seed, len(tp.lat), tp.digest)
	if tp.digest != base.digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced digest differs from the untraced run's\n", w.name)
		correct = false
	}
	if hasExtra {
		if err := x.extra(ctx, jobs[:len(jobs)/extraShare], base.sums, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced extra pass: %v\n", w.name, err)
			correct = false
		}
	}

	// A serial pass over the first allocJobs jobs of each kind, and its
	// extra passes, records every layer's heap allocations exactly.
	at := newTracer(true)
	var sub []job
	var subWant [][sha256.Size]byte
	perKind := map[int]int{}
	for i, j := range jobs {
		if perKind[j.kind] < allocJobs {
			perKind[j.kind]++
			sub = append(sub, j)
			subWant = append(subWant, base.sums[i])
		}
	}
	ap := runPass(ctx, e, sub, w.kinds, at)
	if ap.failed > 0 || !slices.Equal(ap.sums, subWant) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: serial pass: %d failed, or reports differ from the untraced run's: %v\n", w.name, ap.failed, errors.Join(ap.errs...))
		correct = false
	}
	if hasExtra {
		if err := x.extra(ctx, sub, subWant, at); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: serial extra pass: %v\n", w.name, err)
			correct = false
		}
	}

	spans := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d", w.name, seed))
	if err := tr.write(spans + ".jsonl"); err != nil {
		return nil, err
	}
	if err := at.write(spans + "-serial.jsonl"); err != nil {
		return nil, err
	}
	return &result{
		Correct:   correct && tp.failed == 0,
		Attempted: attempted + len(tp.lat) + len(ap.lat),
		Failed:    base.failed + tp.failed + ap.failed,
		Metrics:   ladder(tr, setupTr, at, base, tp),
	}, nil
}

// timeSetUps times cold set-ups of w, each after a GC and closed untimed,
// until setupSpan/2 of wall time has passed and at least minSetups/2 ran.
// The collector is paused meanwhile, so that whether a cycle lands inside a
// set-up depends on the set-up, not on the heap the run built around it.
func timeSetUps(ctx context.Context, w *workload, tr *tracer, dir string, seed uint64) ([]float64, error) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var times []float64
	for i, begin := 0, time.Now(); i < minSetups/2 || time.Since(begin) < setupSpan/2; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := w.setUp(ctx, tr, filepath.Join(dir, fmt.Sprint(i)), seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		s.close()
	}
	return times, nil
}

// endToEnd computes the untraced run's end-to-end metrics over the faster
// half of the timed phase. The phase is split into windows of equal wall
// time. The host's interference only ever slows a window, so the half of
// the windows with the most fork-server requests per second is kept, and
// each rate and latency quantile is taken over the jobs completed in it.
// allocs_per_job counts the whole phase.
func endToEnd(p *pass, setup float64) map[string]metric {
	span := p.wall / windows
	win := make([]int, len(p.lat))
	reqs := make([]float64, windows)
	for i := range p.lat {
		win[i] = min(int(p.done[i]/span), windows-1)
		reqs[win[i]] += float64(p.reqs[i])
	}
	order := make([]int, windows)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]] > reqs[order[b]] })
	kept := make([]bool, windows)
	var keptReqs float64
	for _, k := range order[:keptWindows] {
		kept[k] = true
		keptReqs += reqs[k]
	}
	var ms []float64
	for i, d := range p.lat {
		if kept[win[i]] {
			ms = append(ms, float64(d)/1e6)
		}
	}
	sort.Float64s(ms)
	secs := span.Seconds() * keptWindows
	perS := make([]float64, windows)
	for k := range reqs {
		perS[k] = reqs[k] / span.Seconds()
	}
	fmt.Fprintf(os.Stderr, "windows requests/s %.0f, kept %v, %d jobs kept\n", perS, kept, len(ms))
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"requests_per_s": {keptReqs / secs, "1/s"},
		"jobs_per_s":     {float64(len(ms)) / secs, "1/s"},
		"job_p50_ms":     {quantile(ms, 0.50), "ms"},
		"job_p99_ms":     {quantile(ms, 0.99), "ms"},
		"allocs_per_job": {float64(p.mallocs) / float64(len(p.lat)), "count"},
	}
}

// printKinds writes each job kind's share and latency quantiles to standard
// error, and which kind holds the overall p50 and p99 ranks — the check that
// each falls inside one kind's mode, not on a boundary between kinds.
func printKinds(p *pass, kinds []string) {
	type sample struct {
		ms   float64
		kind int
	}
	all := make([]sample, len(p.lat))
	byKind := make([][]float64, len(kinds))
	for i, d := range p.lat {
		ms := float64(d) / 1e6
		all[i] = sample{ms, p.kinds[i]}
		byKind[p.kinds[i]] = append(byKind[p.kinds[i]], ms)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	for k, v := range byKind {
		sort.Float64s(v)
		fmt.Fprintf(os.Stderr, "kind %-11s share=%5.1f%% p50=%9.3fms p99=%9.3fms\n",
			kinds[k], 100*float64(len(v))/float64(len(all)), quantile(v, 0.5), quantile(v, 0.99))
	}
	for _, q := range []float64{0.5, 0.99} {
		s := all[int(q*float64(len(all)-1))]
		below := 0
		for _, x := range byKind[s.kind] {
			if x < s.ms {
				below++
			}
		}
		fmt.Fprintf(os.Stderr, "overall p%g rank is a %s job, at its own q=%.2f\n",
			100*q, kinds[s.kind], float64(below)/float64(len(byKind[s.kind])))
	}
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// nonzero derives job seed i from the run seed; daemon and fabric jobs
// need explicit non-zero seeds.
func nonzero(seed, i uint64) uint64 {
	s := rng.Mix(seed, i)
	if s == 0 {
		s = 1
	}
	return s
}
