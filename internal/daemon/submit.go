package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Submitted jobs: submit starts a job detached from its connection. It runs
// under the daemon's context, so it outlives the submitting client, and
// status, aggregate and cancel name it by its flight-recorder id. A fabric
// coordinator's control clients (psspctl -submit, -status, -aggregate,
// -cancel) drive it; every daemon serves it.

// submittedJob is one submitted job's record.
type submittedJob struct {
	id     uint64
	method string
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string
	result json.RawMessage
	errMsg string
}

func (j *submittedJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, Kind: j.method, State: j.state, Error: j.errMsg}
}

// finish records the job's end. A job canceled by id stays "canceled"; the
// partial result it may still have produced is kept for aggregate.
func (j *submittedJob) finish(res any, err error) {
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(res)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	next := "done"
	if err != nil {
		next, j.errMsg = "failed", err.Error()
	} else {
		j.result = raw
	}
	if j.state == "running" {
		j.state = next
	}
}

// submitted serves the submit, status and aggregate methods.
func (d *Daemon) submitted(req Request) (any, error) {
	switch req.Method {
	case "submit":
		var p SubmitParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.submit(Request{Method: p.Method, Params: p.Params, Tenant: req.Tenant})
	case "status":
		var p StatusParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return StatusResult{Jobs: d.jobStatuses(p.ID)}, nil
	default:
		var p AggregateParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.aggregate(p.ID)
	}
}

// submit validates req and starts it in the background under the daemon's
// context; the caller's connection may close at once. Shutdown cancels and
// waits for it like any connection's job. Callers run inside ServeConn,
// whose own registration keeps d.wg above zero.
func (d *Daemon) submit(req Request) (SubmitResult, error) {
	j, err := d.newJob(req)
	if err != nil {
		return SubmitResult{}, err
	}
	ctx, cancel := context.WithCancel(d.ctx)
	sj := &submittedJob{id: j.id, method: req.Method, cancel: cancel, state: "running"}
	d.subMu.Lock()
	d.submits[j.id] = sj
	d.subMu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer cancel()
		sj.finish(d.runJob(ctx, j, callbackEvents(nil)))
	}()
	return SubmitResult{ID: j.id}, nil
}

func (d *Daemon) submittedJob(id uint64) (*submittedJob, error) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	if j, ok := d.submits[id]; ok {
		return j, nil
	}
	return nil, badRequest("no job %d", id)
}

// aggregate returns a finished submitted job's result bytes verbatim.
func (d *Daemon) aggregate(id uint64) (json.RawMessage, error) {
	j, err := d.submittedJob(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == "running":
		return nil, fmt.Errorf("%w: job %d still running", ErrBusy, id)
	case j.result == nil:
		return nil, fmt.Errorf("job %d %s: %s", id, j.state, j.errMsg)
	}
	return j.result, nil
}

// cancelSubmitted cancels a running submitted job.
func (d *Daemon) cancelSubmitted(id uint64) (CancelResult, error) {
	j, err := d.submittedJob(id)
	if err != nil {
		return CancelResult{}, err
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
	return CancelResult{Canceled: running}, nil
}

// jobStatuses lists the submitted jobs (id 0: all), ordered by id.
func (d *Daemon) jobStatuses(id uint64) []JobStatus {
	d.subMu.Lock()
	var out []JobStatus
	for _, j := range d.submits {
		if id == 0 || j.id == id {
			out = append(out, j.status())
		}
	}
	d.subMu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
