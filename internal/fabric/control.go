package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// The coordinator's control plane speaks the daemon's line protocol
// (daemon.Request / daemon.Response, one JSON object per line), so the
// existing client library drives it unchanged. A listener started with
// Serve accepts two kinds of connections, told apart by the first line:
// a `register` request is a `psspd -worker -join` flipping roles (the
// coordinator becomes the client of that connection), anything else is a
// control client (psspctl -remote) issuing submit/status/cancel/aggregate/
// stats requests.

// SubmitParams asks the coordinator to start a fabric job. Kind selects
// which param set applies.
type SubmitParams struct {
	// Kind is "campaign", "loadtest", or "fuzz".
	Kind   string               `json:"kind"`
	Attack *daemon.AttackParams `json:"attack,omitempty"`
	Load   *daemon.LoadParams   `json:"load,omitempty"`
	Fuzz   *daemon.FuzzParams   `json:"fuzz,omitempty"`
}

// SubmitResult returns the submitted job's id.
type SubmitResult struct {
	ID uint64 `json:"id"`
}

// JobStatus is one job's row in status output.
type JobStatus struct {
	ID   uint64 `json:"id"`
	Kind string `json:"kind"`
	// State is "running", "done", "failed", or "canceled".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// StatusParams selects jobs; ID 0 lists all.
type StatusParams struct {
	ID uint64 `json:"id,omitempty"`
}

// StatusResult lists job rows, ordered by id.
type StatusResult struct {
	Jobs []JobStatus `json:"jobs"`
}

// AggregateParams name the finished job whose merged report to fetch.
type AggregateParams struct {
	ID uint64 `json:"id"`
}

// job is one submitted fabric job.
type job struct {
	id     uint64
	kind   string
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string
	result json.RawMessage
	errMsg string
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg}
}

// jobTable is the control plane's job registry.
type jobTable struct {
	mu     sync.Mutex
	nextID uint64
	jobs   map[uint64]*job
}

// Serve accepts worker registrations and control clients on lis until ctx
// ends or the listener is closed. Jobs submitted by control clients run
// under ctx.
func (c *Coordinator) Serve(ctx context.Context, lis net.Listener) error {
	go func() {
		<-ctx.Done()
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go c.handleConn(ctx, conn)
	}
}

// handleConn reads a connection's first line to tell a registering worker
// from a control client.
func (c *Coordinator) handleConn(ctx context.Context, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	line, err := br.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return
	}
	var req daemon.Request
	if err := json.Unmarshal(line, &req); err != nil {
		conn.Close()
		return
	}
	if req.Method == "register" {
		var p daemon.RegisterParams
		if len(req.Params) > 0 {
			json.Unmarshal(req.Params, &p)
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", p.Pid)
		}
		ack, _ := json.Marshal(daemon.RegisterResult{OK: true, Name: name})
		if err := json.NewEncoder(conn).Encode(daemon.Response{ID: req.ID, Result: ack}); err != nil {
			conn.Close()
			return
		}
		// The handshake is half-duplex: the worker sends nothing after its
		// register line until we issue requests, so br holds no buffered
		// post-handshake bytes and the raw conn can carry the client side.
		c.AttachConn(conn, name)
		return
	}
	c.serveControl(ctx, conn, br, req)
}

// serveControl answers control requests on one connection, starting with
// the already-read first request. Requests are answered in order; submit
// returns immediately (the job runs in the background) so a single control
// connection can multiplex submissions and polls.
func (c *Coordinator) serveControl(ctx context.Context, conn net.Conn, br *bufio.Reader, first daemon.Request) {
	defer conn.Close()
	var wmu sync.Mutex
	enc := json.NewEncoder(conn)
	reply := func(resp daemon.Response) bool {
		wmu.Lock()
		defer wmu.Unlock()
		return enc.Encode(resp) == nil
	}
	if !c.controlRequest(ctx, first, reply) {
		return
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var req daemon.Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			continue
		}
		if !c.controlRequest(ctx, req, reply) {
			return
		}
	}
}

// controlRequest dispatches one control request; it reports whether the
// connection is still usable.
func (c *Coordinator) controlRequest(ctx context.Context, req daemon.Request, reply func(daemon.Response) bool) bool {
	fail := func(code, format string, args ...any) bool {
		return reply(daemon.Response{ID: req.ID, Error: &daemon.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
	}
	result := func(v any) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			return fail(daemon.CodeInternal, "encoding result: %v", err)
		}
		return reply(daemon.Response{ID: req.ID, Result: raw})
	}
	switch req.Method {
	case "ping":
		return result(map[string]bool{"ok": true})
	case "stats":
		st := c.Stats()
		st.Jobs = c.jobStatuses(0)
		return result(st)
	case "metrics":
		snap := c.cfg.Metrics.Snapshot()
		if snap == nil {
			snap = []obs.Series{}
		}
		return result(snap)
	case "submit":
		var p SubmitParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad submit params: %v", err)
		}
		id, err := c.submit(ctx, p)
		if err != nil {
			return fail(daemon.CodeBadRequest, "%v", err)
		}
		return result(SubmitResult{ID: id})
	case "status":
		var p StatusParams
		if len(req.Params) > 0 {
			if err := json.Unmarshal(req.Params, &p); err != nil {
				return fail(daemon.CodeBadRequest, "bad status params: %v", err)
			}
		}
		return result(StatusResult{Jobs: c.jobStatuses(p.ID)})
	case "cancel":
		var p daemon.CancelParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad cancel params: %v", err)
		}
		j := c.jobByID(p.ID)
		if j == nil {
			return fail(daemon.CodeBadRequest, "no job %d", p.ID)
		}
		j.mu.Lock()
		running := j.state == "running"
		if running {
			j.state = "canceled"
		}
		j.mu.Unlock()
		if running {
			j.cancel()
		}
		return result(daemon.CancelResult{Canceled: running})
	case "aggregate":
		var p AggregateParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad aggregate params: %v", err)
		}
		j := c.jobByID(p.ID)
		if j == nil {
			return fail(daemon.CodeBadRequest, "no job %d", p.ID)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case j.state == "running":
			return fail(daemon.CodeBusy, "job %d still running", p.ID)
		case j.result == nil:
			return fail(daemon.CodeInternal, "job %d %s: %s", p.ID, j.state, j.errMsg)
		}
		return reply(daemon.Response{ID: req.ID, Result: j.result})
	default:
		return fail(daemon.CodeBadRequest, "unknown method %q", req.Method)
	}
}

func (c *Coordinator) jobByID(id uint64) *job {
	c.jobs.mu.Lock()
	defer c.jobs.mu.Unlock()
	return c.jobs.jobs[id]
}

func (c *Coordinator) jobStatuses(id uint64) []JobStatus {
	c.jobs.mu.Lock()
	var out []JobStatus
	for _, j := range c.jobs.jobs {
		if id == 0 || j.id == id {
			out = append(out, j.status())
		}
	}
	c.jobs.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// validate checks that p names a known kind and carries its params.
func (p SubmitParams) validate() error {
	switch {
	case p.Kind == "campaign" && p.Attack == nil:
		return fmt.Errorf("submit campaign: missing attack params")
	case p.Kind == "loadtest" && p.Load == nil:
		return fmt.Errorf("submit loadtest: missing load params")
	case p.Kind == "fuzz" && p.Fuzz == nil:
		return fmt.Errorf("submit fuzz: missing fuzz params")
	case p.Kind != "campaign" && p.Kind != "loadtest" && p.Kind != "fuzz":
		return fmt.Errorf("submit: unknown kind %q (want campaign, loadtest or fuzz)", p.Kind)
	}
	return nil
}

// Run executes one fabric job of any kind and returns its JSON-able report
// in the exact shape the matching single-process CLI emits — the one kind
// switch behind the control API's submit and psspctl's one-shot mode.
func (c *Coordinator) Run(ctx context.Context, p SubmitParams) (any, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch {
	case p.Kind == "campaign":
		return c.Campaign(ctx, *p.Attack)
	case p.Kind == "loadtest":
		// The load report is emitted bare, as psspload -json does.
		res, err := c.load(ctx, *p.Load)
		if len(p.Load.Sweep) > 0 {
			return res.Sweep, err
		}
		return res.Report, err
	default:
		return c.fuzz(ctx, *p.Fuzz)
	}
}

// submit validates p, registers a job, and starts it in the background.
func (c *Coordinator) submit(ctx context.Context, p SubmitParams) (uint64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	jctx, cancel := context.WithCancel(ctx)
	t := c.jobs
	t.mu.Lock()
	t.nextID++
	j := &job{id: t.nextID, kind: p.Kind, cancel: cancel, state: "running"}
	t.jobs[j.id] = j
	t.mu.Unlock()

	go func() {
		defer cancel()
		res, err := c.Run(jctx, p)
		j.mu.Lock()
		defer j.mu.Unlock()
		if err != nil {
			if j.state == "running" {
				j.state = "failed"
			}
			j.errMsg = err.Error()
			return
		}
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.state, j.errMsg = "failed", merr.Error()
			return
		}
		if j.state == "running" {
			j.state = "done"
		}
		j.result = raw
	}()
	return j.id, nil
}
