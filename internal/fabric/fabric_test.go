package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/fuzz"
	"repro/internal/loadgen"
	"repro/internal/store"
	"repro/pssp"
)

// startWorker boots a psspd on a unix socket and returns its address.
func startWorker(t *testing.T, seed uint64) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "w.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	d := daemon.New(daemon.Config{Seed: seed, MaxJobs: 4, MaxQueue: 16, PoolSize: 8})
	go d.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return "unix:" + sock
}

// coordinator builds a Coordinator attached to n fresh workers.
func coordinator(t *testing.T, n int, cfg Config) *Coordinator {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		if err := c.Connect(startWorker(t, 99)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localCampaign runs the reference single-process campaign.
func localCampaign(t *testing.T, p daemon.AttackParams) daemon.AttackReport {
	t.Helper()
	s, err := pssp.ParseScheme(p.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	m := pssp.NewMachine(pssp.WithSeed(p.Seed), pssp.WithScheme(s))
	img, err := m.Pipeline().CompileApp(p.Target).Image()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Campaign(context.Background(), img, pssp.CampaignConfig{
		Strategy:     p.Strategy,
		Replications: p.Repeats,
		Seed:         p.Seed,
		Attack:       pssp.AttackConfig{MaxTrials: p.Budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	return daemon.BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, res)
}

func TestCampaignMatchesLocalAcrossWorkers(t *testing.T) {
	p := daemon.AttackParams{
		Target: "nginx-vuln", Scheme: "ssp", Budget: 256, Repeats: 8, Seed: 7,
	}
	want := asJSON(t, localCampaign(t, p))
	for _, workers := range []int{1, 2} {
		c := coordinator(t, workers, Config{LeaseShards: 2})
		got, err := c.Campaign(context.Background(), p)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if g := asJSON(t, got); g != want {
			t.Errorf("%d-worker fabric report differs from local run:\n got %s\nwant %s", workers, g, want)
		}
		st := c.Stats()
		if st.LeasesIssued == 0 {
			t.Errorf("%d workers: no leases recorded in stats", workers)
		}
	}
}

func TestCampaignSurvivesWorkerKilledMidLease(t *testing.T) {
	p := daemon.AttackParams{
		Target: "nginx-vuln", Scheme: "ssp", Budget: 2048, Repeats: 16, Seed: 7,
	}
	want := asJSON(t, localCampaign(t, p))
	c := coordinator(t, 2, Config{LeaseShards: 1})
	victim := c.workers[0].name
	// Kill one worker while the job is demonstrably in flight (first leases
	// issued, many still pending); its work must be re-issued to the
	// survivor and the merged report stay identical.
	go func() {
		for c.Stats().LeasesIssued < 2 {
			time.Sleep(time.Millisecond)
		}
		c.KillWorker(victim)
	}()
	got, err := c.Campaign(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if g := asJSON(t, got); g != want {
		t.Errorf("report after worker kill differs from local run:\n got %s\nwant %s", g, want)
	}
	st := c.Stats()
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("want exactly 1 surviving worker, got %d (stats %+v)", alive, st.Workers)
	}
}

func TestLoadTestAndSweepMatchLocal(t *testing.T) {
	p := daemon.LoadParams{
		App: "nginx", Scheme: "p-ssp", Requests: 96, Shards: 6, Seed: 7,
	}
	// Reference run: the exact path psspload takes locally, via the shared
	// params mapping.
	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP))
	img, err := m.Pipeline().CompileApp("nginx").Image()
	if err != nil {
		t.Fatal(err)
	}
	np := daemon.NormalizeLoadParams(p)
	cfg, err := daemon.LoadWorkload(np, np.App, np.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := m.LoadTest(context.Background(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := m.LoadSweep(context.Background(), img, cfg, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}

	c := coordinator(t, 2, Config{})
	got, err := c.Do(context.Background(), "", "loadtest", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := asJSON(t, got.(daemon.LoadResult).Report), asJSON(t, wantRep); g != w {
		t.Errorf("fabric load report differs from local run:\n got %s\nwant %s", g, w)
	}
	ps := p
	ps.Sweep = []float64{0.5, 1}
	gotSweep, err := c.Do(context.Background(), "", "loadtest", ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := asJSON(t, gotSweep.(daemon.LoadResult).Sweep), asJSON(t, wantSweep); g != w {
		t.Errorf("fabric sweep report differs from local run:\n got %s\nwant %s", g, w)
	}
}

func TestFuzzMatchesLocalAndSyncsCorpus(t *testing.T) {
	p := daemon.FuzzParams{
		App: "nginx-vuln", Scheme: "ssp", Execs: 192, Shards: 6, Seed: 7,
	}
	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemeSSP))
	img, err := m.Pipeline().CompileApp("nginx-vuln").Image()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Fuzz(context.Background(), img, pssp.FuzzConfig{
		Execs: 192, Shards: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	c := coordinator(t, 2, Config{})
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	got, err := c.Fuzz(context.Background(), p, corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := asJSON(t, got), asJSON(t, want); g != w {
		t.Errorf("fabric fuzz report differs from local run:\n got %s\nwant %s", g, w)
	}
	if got.CorpusSize == 0 {
		t.Fatal("fuzz run admitted no corpus entries; corpus sync untestable")
	}
	if st := c.Daemon.Stats(); st.FrontierEdges != got.Edges {
		t.Errorf("stats frontier %d, report edges %d", st.FrontierEdges, got.Edges)
	}

	// The shared corpus must now hold the run's discoveries: a continuous
	// round resuming from it stalls immediately once coverage is saturated.
	ps := p
	ps.CorpusDir, ps.UntilStall = corpusDir, 2
	res, err := c.Do(context.Background(), "", "fuzz", ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.(daemon.FuzzResult)
	if rep.UntilStall.Rounds < 2 {
		t.Errorf("until-stall ran %d rounds, want >= 2", rep.UntilStall.Rounds)
	}
	if rep.Edges < got.Edges {
		t.Errorf("continuous frontier %d edges shrank below one-shot %d", rep.Edges, got.Edges)
	}
}

// TestFuzzRangeRunnersAgree: a continuous fuzz job with a corpus is
// daemon.RunFuzz under either range runner — a daemon whole job runs each
// round in process, the coordinator leases it — so both give the same
// report bytes and save the same input set.
func TestFuzzRangeRunnersAgree(t *testing.T) {
	p := daemon.FuzzParams{
		App: "nginx-vuln", Scheme: "ssp", Execs: 192, Shards: 6, Seed: 7, UntilStall: 2,
	}
	saved := func(dir string) string {
		t.Helper()
		corp, err := store.OpenCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		inputs, frontier, err := corp.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(inputs) == 0 || frontier == nil {
			t.Fatalf("corpus %s holds %d input(s), frontier %v", dir, len(inputs), frontier != nil)
		}
		return asJSON(t, inputs) + asJSON(t, frontier)
	}

	d := daemon.New(daemon.Config{})
	t.Cleanup(func() { d.Shutdown(context.Background()) })
	wp := p
	wp.CorpusDir = filepath.Join(t.TempDir(), "whole")
	whole, err := d.Do(context.Background(), "t", "fuzz", wp, nil)
	if err != nil {
		t.Fatal(err)
	}

	c := coordinator(t, 2, Config{})
	lp := p
	lp.CorpusDir = filepath.Join(t.TempDir(), "leased")
	leased, err := c.Do(context.Background(), "", "fuzz", lp, nil)
	if err != nil {
		t.Fatal(err)
	}

	if g, w := asJSON(t, leased), asJSON(t, whole); g != w {
		t.Errorf("leased fuzz job differs from the daemon's whole job:\n got %s\nwant %s", g, w)
	}
	if whole.(daemon.FuzzResult).UntilStall == nil {
		t.Error("continuous whole job reported no until-stall summary")
	}
	if g, w := saved(lp.CorpusDir), saved(wp.CorpusDir); g != w {
		t.Error("leased and whole fuzz jobs saved different corpora")
	}
}

func TestFatalWorkerErrorFailsJob(t *testing.T) {
	c := coordinator(t, 1, Config{})
	// Unknown app: the coordinator's image compile fails before any lease
	// — fatal, not a reassignment loop.
	_, err := c.Fuzz(context.Background(), daemon.FuzzParams{App: "no-such-app", Seed: 3}, "")
	if err == nil {
		t.Fatal("want fatal job error for unknown app")
	}
	if st := c.Stats(); st.LeasesReassigned != 0 {
		t.Errorf("fatal error was retried: %d reassignments", st.LeasesReassigned)
	}
}

// malformedWorker attaches an in-process worker that answers every
// loadshard and fuzzshard lease with a partial of the wrong shape: no
// latency classes, and coverage cells out of order (cell 5, then cell 4).
func malformedWorker(t *testing.T, c *Coordinator) {
	t.Helper()
	coordEnd, workerEnd := net.Pipe()
	t.Cleanup(func() { workerEnd.Close() })
	c.AttachConn(coordEnd, "malformed")
	go func() {
		sc := bufio.NewScanner(workerEnd)
		enc := json.NewEncoder(workerEnd)
		for sc.Scan() {
			var req struct {
				ID     uint64
				Method string
				Params struct{ Lo int }
			}
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				return
			}
			result := fmt.Sprintf(`{"partials":[{"shard":%d,"classes":[]}]}`, req.Params.Lo)
			if req.Method == "fuzzshard" {
				result = fmt.Sprintf(`{"partials":[{"shard":%d,"execs":1,"virgin":"AAUBAAQB"}]}`, req.Params.Lo)
			}
			if enc.Encode(daemon.Response{ID: req.ID, Result: json.RawMessage(result)}) != nil {
				return
			}
		}
	}()
}

// TestMalformedPartialFailsJob: a worker's partial crosses a trust
// boundary — a partial that does not fit the plan fails the job with the
// engine's typed error instead of panicking the coordinator's merge.
func TestMalformedPartialFailsJob(t *testing.T) {
	c := New(Config{})
	t.Cleanup(c.Close)
	malformedWorker(t, c)
	_, err := c.Do(context.Background(), "", "loadtest", daemon.LoadParams{App: "nginx", Requests: 8, Shards: 2, Seed: 3}, nil)
	if !errors.Is(err, loadgen.ErrMalformedPartial) {
		t.Errorf("loadtest with short-classes partials: err = %v, want loadgen.ErrMalformedPartial", err)
	}
	_, err = c.Fuzz(context.Background(), daemon.FuzzParams{Execs: 8, Shards: 2, Seed: 3}, "")
	if !errors.Is(err, fuzz.ErrMalformedPartial) {
		t.Errorf("fuzz with out-of-order cells: err = %v, want fuzz.ErrMalformedPartial", err)
	}
}

func TestWorkerJoinViaServeRegister(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "coord.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	t.Cleanup(c.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Serve(ctx, lis)

	d := daemon.New(daemon.Config{Seed: 99, MaxJobs: 4, MaxQueue: 16, PoolSize: 8})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go d.Worker(wctx, "unix:"+sock, "joiner")
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		d.Shutdown(sctx)
	})

	if err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	p := daemon.AttackParams{Target: "nginx-vuln", Scheme: "ssp", Budget: 128, Repeats: 2, Seed: 7}
	want := asJSON(t, localCampaign(t, p))
	got, err := c.Campaign(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if g := asJSON(t, got); g != want {
		t.Errorf("dial-in worker report differs from local run:\n got %s\nwant %s", g, want)
	}
}

// TestFirstLineSniffIsBounded: the coordinator reads a connection's first
// line under the daemon's MaxLine bound, and answers a register whose
// params do not decode with a bad-request error instead of attaching a
// worker.
func TestFirstLineSniffIsBounded(t *testing.T) {
	c := New(Config{})
	t.Cleanup(c.Close)

	cliEnd, srvEnd := net.Pipe()
	go c.handleConn(srvEnd, firstLineDeadline)
	// The writer stalls once the coordinator stops reading, so it runs
	// beside the read that waits for the close.
	go cliEnd.Write(bytes.Repeat([]byte{'x'}, daemon.MaxLine+1))
	cliEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cliEnd.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("over-long first line: read err = %v, want the connection closed (io.EOF)", err)
	}
	cliEnd.Close()

	cliEnd, srvEnd = net.Pipe()
	defer cliEnd.Close()
	go c.handleConn(srvEnd, firstLineDeadline)
	go cliEnd.Write([]byte(`{"id":1,"method":"register","params":"x"}` + "\n"))
	cliEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(cliEnd).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp daemon.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.Error == nil || resp.Error.Code != daemon.CodeBadRequest {
		t.Errorf("malformed register: reply %s, want a %s error for id 1", line, daemon.CodeBadRequest)
	}
	if ws := c.Stats().Workers; len(ws) != 0 {
		t.Errorf("malformed register attached %d worker(s): %+v", len(ws), ws)
	}
}

// TestFuzzTimeBoxReturnsLeasedPartial: a fuzz job whose time box ends
// before any lease completes still returns the work its leases did, as a
// canceled partial — the report a plain psspd gives for the same box —
// not a canceled error.
func TestFuzzTimeBoxReturnsLeasedPartial(t *testing.T) {
	c := coordinator(t, 2, Config{})
	p := daemon.FuzzParams{App: "nginx-vuln", Scheme: "ssp", Execs: 100000000, Shards: 4, Seed: 7}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	res, err := c.Do(ctx, "", "fuzz", p, nil)
	if err != nil {
		t.Fatalf("time-boxed fuzz job: %v, want a partial report", err)
	}
	rep := res.(daemon.FuzzResult)
	if !rep.Canceled || rep.FuzzReport == nil || rep.Execs == 0 || rep.Execs >= p.Execs {
		t.Fatalf("partial: canceled=%v report=%v", rep.Canceled, rep.FuzzReport != nil)
	}
	if st := c.Stats(); st.LeasesReassigned != 0 {
		t.Errorf("a time box re-issued %d lease(s)", st.LeasesReassigned)
	}
}

// TestSilentConnectionClosedAfterDeadline: a connection that never sends
// its first line costs the coordinator one deadline, then is closed.
func TestSilentConnectionClosedAfterDeadline(t *testing.T) {
	c := New(Config{})
	t.Cleanup(c.Close)

	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	const silence = 50 * time.Millisecond
	done := make(chan struct{})
	start := time.Now()
	go func() {
		c.handleConn(srvEnd, silence)
		close(done)
	}()
	cliEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cliEnd.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection: read err = %v, want the connection closed (io.EOF)", err)
	}
	if waited := time.Since(start); waited < silence {
		t.Errorf("closed after %v, before the %v deadline", waited, silence)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleConn still running after closing the connection")
	}
	if ws := c.Stats().Workers; len(ws) != 0 {
		t.Errorf("silent connection attached %d worker(s)", len(ws))
	}
}
