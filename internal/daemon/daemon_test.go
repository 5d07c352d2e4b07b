package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/store"
	"repro/pssp"
)

// discardEvents is an eventStream that drops progress lines.
func discardEvents(id uint64) *eventStream {
	return newEventStream(&connWriter{enc: json.NewEncoder(io.Discard)}, id)
}

// runJob validates and runs one request synchronously, bypassing the wire.
func runJob(t *testing.T, d *Daemon, tenantName string, method string, params any) (any, uint64, error) {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatalf("marshal params: %v", err)
	}
	d.mu.Lock()
	ten := d.tenantFor(tenantName)
	d.mu.Unlock()
	run, err := d.jobFor(Request{Method: method, Params: raw}, ten)
	if err != nil {
		t.Fatalf("jobFor(%s): %v", method, err)
	}
	return run(context.Background(), discardEvents(1))
}

func TestJobSeedDerivation(t *testing.T) {
	d := New(Config{Seed: 2018})
	defer d.Shutdown(context.Background())
	d.mu.Lock()
	a, b := d.tenantFor("alice"), d.tenantFor("bob")
	d.mu.Unlock()

	if got := d.jobSeed(a, 77); got != 77 {
		t.Fatalf("explicit seed not verbatim: got %d", got)
	}
	// Auto-derived seeds come from the tenant's stream: Mix(tenantSeed, jobID).
	s1, s2 := d.jobSeed(a, 0), d.jobSeed(a, 0)
	if s1 != rng.Mix(a.seed, 1) || s2 != rng.Mix(a.seed, 2) {
		t.Fatalf("derived seeds %d,%d want Mix(tenant,1..2)", s1, s2)
	}
	if s1 == s2 {
		t.Fatal("successive derived seeds collide")
	}
	if a.seed == b.seed {
		t.Fatal("distinct tenants share a seed stream")
	}
	// Same daemon seed + tenant name => same stream, across daemon instances.
	d2 := New(Config{Seed: 2018})
	defer d2.Shutdown(context.Background())
	d2.mu.Lock()
	a2 := d2.tenantFor("alice")
	d2.mu.Unlock()
	if a2.seed != a.seed {
		t.Fatalf("tenant stream not reproducible: %d vs %d", a2.seed, a.seed)
	}
}

func TestAdmitQuotaTypedError(t *testing.T) {
	d := New(Config{QuotaCycles: 1000})
	defer d.Shutdown(context.Background())
	d.mu.Lock()
	ten := d.tenantFor("greedy")
	other := d.tenantFor("frugal")
	d.mu.Unlock()

	ctx := context.Background()
	if err := d.admit(ctx, ten); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	d.release(ten, 1000) // spends the whole quota
	err := d.admit(ctx, ten)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admit: got %v, want ErrQuotaExceeded", err)
	}
	// The quota is per tenant: another tenant still runs.
	if err := d.admit(ctx, other); err != nil {
		t.Fatalf("other tenant blocked by greedy's quota: %v", err)
	}
	d.release(other, 0)
}

func TestAdmitQueueBackpressure(t *testing.T) {
	d := New(Config{MaxJobs: 1, MaxQueue: 1})
	defer d.Shutdown(context.Background())
	ten := d.tenantFor("t")
	ctx := context.Background()

	if err := d.admit(ctx, ten); err != nil {
		t.Fatalf("admit: %v", err)
	}
	// One waiter fits the queue...
	waited := make(chan error, 1)
	go func() { waited <- d.admit(ctx, ten) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := d.met.queued.Load()
		if w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the next one bounces with the typed busy error.
	if err := d.admit(ctx, ten); !errors.Is(err, ErrBusy) {
		t.Fatalf("overfull queue: got %v, want ErrBusy", err)
	}
	// Releasing the slot wakes the waiter.
	d.release(ten, 0)
	if err := <-waited; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	d.release(ten, 0)

	// A waiter whose context dies leaves cleanly.
	if err := d.admit(ctx, ten); err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := d.admit(cctx, ten); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: got %v", err)
	}
	d.release(ten, 0)
}

func TestPoolWarmHitAndKilledEntryRespawn(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	key := poolKey{imageKey{app: "nginx-vuln", scheme: pssp.SchemeSSP}, 7}

	e, err := d.pool.checkout(ctx, key)
	if err != nil {
		t.Fatalf("cold checkout: %v", err)
	}
	d.pool.checkin(ctx, e)
	e2, err := d.pool.checkout(ctx, key)
	if err != nil {
		t.Fatalf("warm checkout: %v", err)
	}
	if e2 != e {
		t.Fatal("clean checkin did not park the same entry")
	}
	if st := d.pool.stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	d.pool.checkin(ctx, e2)

	// Kill the parked machine under the pool (a crashed parent fails the
	// Parked health check the same way); the next checkout must respawn.
	d.pool.mu.Lock()
	parked := d.pool.entries[key]
	d.pool.mu.Unlock()
	parked.srv.Close()
	e3, err := d.pool.checkout(ctx, key)
	if err != nil {
		t.Fatalf("respawn checkout: %v", err)
	}
	if e3 == parked {
		t.Fatal("killed entry handed out instead of respawned")
	}
	if !e3.srv.Parked() {
		t.Fatal("respawned entry not parked")
	}
	if st := d.pool.stats(); st.Respawns != 1 {
		t.Fatalf("respawns = %d, want 1", st.Respawns)
	}
	d.pool.checkin(ctx, e3)
}

func TestPoolDirtyCheckinRebuilds(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	key := poolKey{imageKey{app: "nginx-vuln", scheme: pssp.SchemeSSP}, 3}

	e, err := d.pool.checkout(ctx, key)
	if err != nil {
		t.Fatalf("checkout: %v", err)
	}
	if _, err := e.srv.Handle(ctx, []byte("GET /\n")); err != nil {
		t.Fatalf("handle: %v", err)
	}
	d.pool.checkin(ctx, e) // dirty: served a request
	e2, err := d.pool.checkout(ctx, key)
	if err != nil {
		t.Fatalf("re-checkout: %v", err)
	}
	if e2 == e || e2.srv.Requests() != 0 {
		t.Fatal("dirty entry was parked instead of rebuilt")
	}
	d.pool.checkin(ctx, e2)
}

func TestPoolLRUEviction(t *testing.T) {
	d := New(Config{PoolSize: 1})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	k1 := poolKey{imageKey{app: "nginx-vuln", scheme: pssp.SchemeSSP}, 1}
	k2 := poolKey{imageKey{app: "nginx-vuln", scheme: pssp.SchemeSSP}, 2}

	e1, err := d.pool.checkout(ctx, k1)
	if err != nil {
		t.Fatalf("checkout k1: %v", err)
	}
	e2, err := d.pool.checkout(ctx, k2)
	if err != nil {
		t.Fatalf("checkout k2: %v", err)
	}
	d.pool.checkin(ctx, e1)
	d.pool.checkin(ctx, e2) // evicts e1 (cap 1, oldest first)
	st := d.pool.stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("entries/evictions = %d/%d, want 1/1", st.Entries, st.Evictions)
	}
	if e1.srv.Parked() {
		t.Fatal("evicted entry's machine was not closed")
	}
	d.pool.mu.Lock()
	_, k2parked := d.pool.entries[k2]
	d.pool.mu.Unlock()
	if !k2parked {
		t.Fatal("most-recent entry missing from pool")
	}
}

// cancelOnWrite cancels a context when the n'th progress line is emitted,
// so cancellation lands mid-job by construction.
type cancelOnWrite struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	if w.n--; w.n == 0 {
		w.cancel()
	}
	return len(p), nil
}

func TestCancelMidCampaignReturnsPartialAndPoolStaysHealthy(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	d.mu.Lock()
	ten := d.tenantFor("t")
	d.mu.Unlock()

	params, _ := json.Marshal(AttackParams{
		Scheme: "p-ssp", Budget: 64, Repeats: 64, Workers: 1, Seed: 9,
	})
	run, err := d.jobFor(Request{Method: "attack", Params: params}, ten)
	if err != nil {
		t.Fatalf("jobFor: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The campaign emits its first progress event after replication 1; the
	// event write cancels the job, so it stops mid-campaign by construction.
	ev := newEventStream(&connWriter{enc: json.NewEncoder(&cancelOnWrite{n: 1, cancel: cancel})}, 1)
	result, cost, err := run(ctx, ev)
	if err != nil {
		t.Fatalf("canceled campaign should return a partial result, got error %v", err)
	}
	rep, ok := result.(AttackReport)
	if !ok {
		t.Fatalf("result type %T", result)
	}
	if !rep.Canceled {
		t.Fatal("partial report not flagged canceled")
	}
	if rep.Completed == 0 || rep.Completed >= 64 {
		t.Fatalf("completed = %d, want mid-campaign partial", rep.Completed)
	}
	if rep.Completed != len(rep.Outcomes) {
		t.Fatalf("malformed partial: %d outcomes for %d completed", len(rep.Outcomes), rep.Completed)
	}
	if cost == 0 {
		t.Fatal("partial campaign charged no cycles")
	}

	// Engine jobs never check out a pool entry, so a canceled campaign
	// cannot leave one dirty: the pool is still empty, and the next job for
	// the same seed runs to completion.
	if st := d.pool.stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 || st.Respawns != 0 {
		t.Fatalf("canceled campaign touched the warm pool: %+v", st)
	}
	params2, _ := json.Marshal(AttackParams{Scheme: "p-ssp", Budget: 64, Repeats: 2, Workers: 1, Seed: 9})
	run2, err := d.jobFor(Request{Method: "attack", Params: params2}, ten)
	if err != nil {
		t.Fatalf("jobFor 2: %v", err)
	}
	result2, _, err := run2(context.Background(), discardEvents(2))
	if err != nil {
		t.Fatalf("follow-up job after cancel: %v", err)
	}
	if rep2 := result2.(AttackReport); rep2.Completed != 2 || rep2.Canceled {
		t.Fatalf("follow-up report completed=%d canceled=%v", rep2.Completed, rep2.Canceled)
	}
}

// TestKilledMachineRespawnIsolation kills one tenant's parked boot entry
// while another tenant's attack is mid-flight: the victim tenant's next boot
// respawns the entry and still reports the seed-determined machine, and the
// bystander's attack report is byte-identical to an undisturbed run.
func TestKilledMachineRespawnIsolation(t *testing.T) {
	jobJSON := func(d *Daemon, tenant, method string, p any) []byte {
		res, _, err := runJob(t, d, tenant, method, p)
		if err != nil {
			t.Fatalf("%s job: %v", method, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return raw
	}
	pa := BootParams{Scheme: "ssp", Seed: 11}
	pb := AttackParams{Scheme: "p-ssp", Budget: 256, Repeats: 4, Workers: 1, Seed: 22}

	// Baseline reports from an undisturbed daemon.
	base := New(Config{})
	defer base.Shutdown(context.Background())
	wantA := jobJSON(base, "a", "boot", pa)
	wantB := jobJSON(base, "b", "attack", pb)

	d := New(Config{})
	defer d.Shutdown(context.Background())
	if got := jobJSON(d, "a", "boot", pa); string(got) != string(wantA) {
		t.Fatal("tenant a's first boot diverges from baseline")
	}

	// Start tenant b's attack, then kill tenant a's parked machine while it
	// runs.
	bDone := make(chan []byte, 1)
	go func() { bDone <- jobJSON(d, "b", "attack", pb) }()
	keyA := poolKey{imageKey{app: "nginx-vuln", scheme: pssp.SchemeSSP}, 11}
	d.pool.mu.Lock()
	parked := d.pool.entries[keyA]
	d.pool.mu.Unlock()
	if parked == nil {
		t.Fatal("tenant a's machine not parked after its boot")
	}
	parked.srv.Close()

	// Tenant a's next boot respawns the machine and reproduces the report.
	if got := jobJSON(d, "a", "boot", pa); string(got) != string(wantA) {
		t.Fatal("respawned machine changed tenant a's report")
	}
	if st := d.pool.stats(); st.Respawns == 0 {
		t.Fatal("killed machine was not respawned")
	}
	// The bystander tenant's concurrent attack is untouched.
	if got := <-bDone; string(got) != string(wantB) {
		t.Fatal("tenant b's report diverged while tenant a's machine was killed")
	}
}

// TestEngineJobsSkipWarmPool: attack, loadtest and fuzz jobs, whole or
// shard, run on the cached image alone — they leave the warm pool's
// entries, hits and misses exactly as a parked boot left them.
func TestEngineJobsSkipWarmPool(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	if _, _, err := runJob(t, d, "t", "boot", BootParams{Scheme: "ssp", Seed: 5}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	before := d.pool.stats()
	jobs := []struct {
		method string
		params any
	}{
		{"attack", AttackParams{Scheme: "ssp", Budget: 64, Workers: 1, Seed: 5}},
		{"loadtest", LoadParams{App: "nginx-vuln", Scheme: "ssp", Requests: 8, Shards: 1, Workers: 1, Seed: 5}},
		{"fuzz", FuzzParams{Scheme: "ssp", Execs: 16, Shards: 1, Workers: 1, Seed: 5}},
		{"campaignshard", CampaignShardParams{AttackParams: AttackParams{Scheme: "ssp", Budget: 64, Workers: 1, Seed: 5}, Lo: 0, Hi: 1}},
		{"loadshard", LoadShardParams{LoadParams: LoadParams{App: "nginx-vuln", Scheme: "ssp", Requests: 8, Shards: 1, Workers: 1, Seed: 5}, Lo: 0, Hi: 1}},
		{"fuzzshard", FuzzShardParams{FuzzParams: FuzzParams{Scheme: "ssp", Execs: 16, Shards: 1, Workers: 1, Seed: 5}, Lo: 0, Hi: 1}},
	}
	for _, j := range jobs {
		if _, _, err := runJob(t, d, "t", j.method, j.params); err != nil {
			t.Fatalf("%s: %v", j.method, err)
		}
		st := d.pool.stats()
		if st.Entries != before.Entries || st.Hits != before.Hits || st.Misses != before.Misses {
			t.Fatalf("%s touched the warm pool: before %+v, after %+v", j.method, before, st)
		}
	}
}

// TestShardJobRejections: every shard method rejects a derived seed, a bad
// range and an unknown scheme (and loadshard a sweep, fuzzshard continuous
// mode) as a bad request, before admission.
func TestShardJobRejections(t *testing.T) {
	// params builds one shard method's lease params.
	params := func(method string, seed uint64, scheme string, lo, hi int) any {
		switch method {
		case "campaignshard":
			return CampaignShardParams{AttackParams: AttackParams{Scheme: scheme, Seed: seed}, Lo: lo, Hi: hi}
		case "loadshard":
			return LoadShardParams{LoadParams: LoadParams{Scheme: scheme, Seed: seed}, Lo: lo, Hi: hi}
		default:
			return FuzzShardParams{FuzzParams: FuzzParams{Scheme: scheme, Seed: seed}, Lo: lo, Hi: hi}
		}
	}
	d := New(Config{})
	defer d.Shutdown(context.Background())
	reject := func(what, method string, p any) {
		t.Helper()
		_, err := d.Do(context.Background(), "t", method, p, nil)
		if err == nil || wireError(err).Code != CodeBadRequest {
			t.Errorf("%s %s: err = %v, want %s", method, what, err, CodeBadRequest)
		}
	}
	for _, m := range []string{"campaignshard", "loadshard", "fuzzshard"} {
		reject("seed 0", m, params(m, 0, "ssp", 0, 1))
		reject("lo < 0", m, params(m, 3, "ssp", -1, 1))
		reject("hi <= lo", m, params(m, 3, "ssp", 2, 2))
		reject("unknown scheme", m, params(m, 3, "no-such-scheme", 0, 1))
	}
	reject("sweep", "loadshard", LoadShardParams{LoadParams: LoadParams{Seed: 3, Sweep: []float64{1, 2}}, Lo: 0, Hi: 1})
	reject("until-stall", "fuzzshard", FuzzShardParams{FuzzParams: FuzzParams{Seed: 3, UntilStall: 2}, Lo: 0, Hi: 1})
	if n := d.met.admitted.Load(); n != 0 {
		t.Errorf("%d rejected shard job(s) were admitted", n)
	}
}

// TestCancelMidJobReturnsFlaggedPartial: a whole loadtest, sweep or fuzz
// job canceled mid-run answers with a report flagged Canceled that holds
// the work done so far, and charges its cycles. Whole jobs run through the
// engines' RunShards, so this pins that an interrupted range returns its
// partials with the error.
func TestCancelMidJobReturnsFlaggedPartial(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	d.mu.Lock()
	ten := d.tenantFor("t")
	d.mu.Unlock()
	jobs := []struct {
		name, method string
		params       any
		// cancelAt is the progress line that cancels the job.
		cancelAt int
		// worked reports the partial's work.
		worked func(any) int
	}{
		{"loadtest", "loadtest", LoadParams{App: "nginx-vuln", Scheme: "ssp", Requests: 100000, Shards: 1, Workers: 1, Seed: 9}, 1,
			func(r any) int { return r.(LoadResult).Report.Requests }},
		// The first point serves 32 requests and emits one line, at its
		// shard's completion; the second point runs until its first line
		// clears the event throttle, and is canceled there.
		{"sweep", "loadtest", LoadParams{App: "nginx-vuln", Scheme: "ssp", Arrivals: "uniform", Rate: 32, DurationCycles: 1_000_000,
			Shards: 1, Workers: 1, Sweep: []float64{1, 10000}, Seed: 9}, 2,
			func(r any) int {
				sw := r.(LoadResult).Sweep
				if len(sw.Points) != 1 {
					return 0
				}
				return sw.Points[0].Report.Requests
			}},
		{"fuzz", "fuzz", FuzzParams{Scheme: "ssp", Execs: 100000, Shards: 1, Workers: 1, Seed: 9}, 1,
			func(r any) int { return r.(FuzzResult).Execs }},
	}
	for _, j := range jobs {
		params, _ := json.Marshal(j.params)
		run, err := d.jobFor(Request{Method: j.method, Params: params}, ten)
		if err != nil {
			t.Fatalf("%s: jobFor: %v", j.name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ev := newEventStream(&connWriter{enc: json.NewEncoder(&cancelOnWrite{n: j.cancelAt, cancel: cancel})}, 1)
		result, cost, err := run(ctx, ev)
		cancel()
		if err != nil {
			t.Fatalf("%s: canceled job should return a partial result, got error %v", j.name, err)
		}
		canceled := false
		switch r := result.(type) {
		case LoadResult:
			canceled = r.Canceled
		case FuzzResult:
			canceled = r.Canceled
		}
		if !canceled {
			t.Errorf("%s: partial report not flagged canceled", j.name)
		}
		if j.worked(result) == 0 {
			t.Errorf("%s: canceled report holds no work: %+v", j.name, result)
		}
		if cost == 0 {
			t.Errorf("%s: partial job charged no cycles", j.name)
		}
	}
}

// TestCanceledFuzzJobFoldsCorpus: a whole fuzz job with a corpus, canceled
// mid-run, answers with a Canceled partial and still folds that partial's
// discoveries into the corpus.
func TestCanceledFuzzJobFoldsCorpus(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	dir := filepath.Join(t.TempDir(), "corpus")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := FuzzParams{Scheme: "ssp", Execs: 100000, Shards: 1, Workers: 1, Seed: 9, CorpusDir: dir}
	res, err := d.Do(ctx, "t", "fuzz", p, func(ProgressEvent) { cancel() })
	if err != nil {
		t.Fatalf("canceled job should return a partial result, got error %v", err)
	}
	if fr := res.(FuzzResult); !fr.Canceled || fr.Execs == 0 || fr.Execs >= p.Execs {
		t.Fatalf("want a canceled partial, got canceled=%v execs=%d", fr.Canceled, fr.Execs)
	}
	corp, err := store.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs, frontier, err := corp.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) == 0 || frontier == nil {
		t.Errorf("canceled run left %d corpus input(s), frontier saved %v", len(inputs), frontier != nil)
	}
}

// TestWholeJobChargesShardCharges: for each engine kind, a whole job
// charges its tenant exactly the sum of what shard jobs covering the same
// range charge — whole jobs run the shard jobs' range run, so there is one
// charge rule.
func TestWholeJobChargesShardCharges(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	used := func(tenant string) uint64 {
		for _, ts := range d.Stats().Tenants {
			if ts.Name == tenant {
				return ts.CyclesUsed
			}
		}
		return 0
	}
	attack := AttackParams{Scheme: "ssp", Budget: 256, Repeats: 3, Workers: 1, Seed: 5}
	load := LoadParams{App: "nginx-vuln", Scheme: "ssp", Requests: 24, Shards: 3, Workers: 1, Seed: 5}
	fuzz := FuzzParams{Scheme: "ssp", Execs: 48, Shards: 3, Workers: 1, Seed: 5}
	kinds := []struct {
		whole, shard string
		params       any
		rng          func(lo, hi int) any
	}{
		{"attack", "campaignshard", attack, func(lo, hi int) any { return CampaignShardParams{AttackParams: attack, Lo: lo, Hi: hi} }},
		{"loadtest", "loadshard", load, func(lo, hi int) any { return LoadShardParams{LoadParams: load, Lo: lo, Hi: hi} }},
		{"fuzz", "fuzzshard", fuzz, func(lo, hi int) any { return FuzzShardParams{FuzzParams: fuzz, Lo: lo, Hi: hi} }},
	}
	ctx := context.Background()
	for _, k := range kinds {
		if _, err := d.Do(ctx, "whole-"+k.whole, k.whole, k.params, nil); err != nil {
			t.Fatalf("%s: %v", k.whole, err)
		}
		for _, r := range [][2]int{{0, 1}, {1, 3}} {
			if _, err := d.Do(ctx, "shard-"+k.whole, k.shard, k.rng(r[0], r[1]), nil); err != nil {
				t.Fatalf("%s [%d,%d): %v", k.shard, r[0], r[1], err)
			}
		}
		whole, shards := used("whole-"+k.whole), used("shard-"+k.whole)
		if whole == 0 || whole != shards {
			t.Errorf("%s: whole job charged %d cycles, its shard jobs %d", k.whole, whole, shards)
		}
	}
}

// TestDroppedConnectionCancelsItsJobs: a client that drops its connection
// mid-job frees its admission slot. The first connection starts an attack
// far too long to finish (a million p-ssp replications) on a one-slot
// daemon, reads its first progress line, and closes. ServeConn must cancel
// the job, return, and leave the slot free for a second connection's job.
func TestDroppedConnectionCancelsItsJobs(t *testing.T) {
	d := New(Config{MaxJobs: 1})
	defer d.Shutdown(context.Background())
	serve := func() (net.Conn, chan error) {
		cli, srv := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- d.ServeConn(srv) }()
		return cli, done
	}
	submit := func(c net.Conn, p AttackParams) *bufio.Scanner {
		raw, _ := json.Marshal(p)
		go json.NewEncoder(c).Encode(Request{ID: 1, Method: "attack", Params: raw})
		return bufio.NewScanner(c)
	}
	watchdog := time.After(time.Minute) // only fires if the bug is back

	c1, done1 := serve()
	sc := submit(c1, AttackParams{Scheme: "p-ssp", Budget: 64, Repeats: 1 << 20, Workers: 1, Seed: 9})
	if !sc.Scan() {
		t.Fatalf("no progress line: %v", sc.Err())
	}
	var ev Response
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Event != "progress" {
		t.Fatalf("first line %q (%v), want a progress event", sc.Bytes(), err)
	}
	c1.Close()
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
	case <-watchdog:
		t.Fatal("ServeConn still waiting on the dropped connection's job")
	}
	// The job ended as a canceled partial (counted with the finished
	// jobs: it did work), and its slot is free.
	if st := d.Stats(); st.Running != 0 || st.Completed+st.Canceled != 1 {
		t.Fatalf("after the drop: running=%d finished=%d, want 0 and 1", st.Running, st.Completed+st.Canceled)
	}

	c2, done2 := serve()
	sc = submit(c2, AttackParams{Scheme: "p-ssp", Budget: 64, Repeats: 1, Workers: 1, Seed: 9})
	var resp Response
	for resp.Event != "" || resp.Result == nil && resp.Error == nil {
		if !sc.Scan() {
			t.Fatalf("second connection: %v", sc.Err())
		}
		resp = Response{}
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.Error != nil {
		t.Fatalf("second connection's job: %+v", resp.Error)
	}
	var rep AttackReport
	if err := json.Unmarshal(resp.Result, &rep); err != nil || rep.Completed != 1 || rep.Canceled {
		t.Fatalf("second job report completed=%d canceled=%v (%v)", rep.Completed, rep.Canceled, err)
	}
	c2.Close()
	<-done2
}
