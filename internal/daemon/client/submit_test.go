package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"

	"repro/internal/daemon"
)

// pipeTo returns a client of d over a fresh net.Pipe connection.
func pipeTo(d *daemon.Daemon) *Client {
	cli, srv := net.Pipe()
	go d.ServeConn(srv)
	return NewConn(cli)
}

// submit starts method with params as a submitted job on c.
func submit(t *testing.T, c *Client, method string, params any) uint64 {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	var res daemon.SubmitResult
	if err := c.Call(context.Background(), "submit", daemon.SubmitParams{Method: method, Params: raw}, &res); err != nil {
		t.Fatalf("submit %s: %v", method, err)
	}
	return res.ID
}

// jobState reads one submitted job's status row.
func jobState(t *testing.T, c *Client, id uint64) daemon.JobStatus {
	t.Helper()
	var st daemon.StatusResult
	if err := c.Call(context.Background(), "status", daemon.StatusParams{ID: id}, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].ID != id {
		t.Fatalf("status of job %d: %+v", id, st.Jobs)
	}
	return st.Jobs[0]
}

// TestSubmittedJobOutlivesItsConnection: a job submitted on a connection
// that then closes runs to completion, status reports it done, and
// aggregate returns exactly the bytes the same job returns as a
// synchronous call.
func TestSubmittedJobOutlivesItsConnection(t *testing.T) {
	d := daemon.New(daemon.Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	p := daemon.AttackParams{Scheme: "ssp", Budget: 512, Repeats: 2, Workers: 1, Seed: 7}

	ctl := pipeTo(d)
	defer ctl.Close()
	var want json.RawMessage
	if err := ctl.Call(ctx, "attack", p, &want); err != nil {
		t.Fatal(err)
	}

	sub := pipeTo(d)
	id := submit(t, sub, "attack", p)
	sub.Close()

	// Each status call is a round trip to the daemon, so the loop yields
	// to the job without sleeping.
	st := jobState(t, ctl, id)
	for st.State == "running" {
		st = jobState(t, ctl, id)
	}
	if st.State != "done" || st.Kind != "attack" {
		t.Fatalf("submitted job ended %+v, want a done attack", st)
	}
	var got json.RawMessage
	if err := ctl.Call(ctx, "aggregate", daemon.AggregateParams{ID: id}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("aggregate differs from the synchronous result:\n got %s\nwant %s", got, want)
	}
	stats, err := ctl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0] != st {
		t.Errorf("stats lists submitted jobs %+v, want [%+v]", stats.Jobs, st)
	}
}

// TestCancelSubmittedJobByID: cancel names a submitted job by its id from
// any connection; a second cancel and an unknown id find nothing to
// cancel, and a running job has no aggregate yet.
func TestCancelSubmittedJobByID(t *testing.T) {
	d := daemon.New(daemon.Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	c := pipeTo(d)
	defer c.Close()

	// Far too long to finish: p-ssp holds every replication to budget.
	id := submit(t, c, "attack", daemon.AttackParams{Scheme: "p-ssp", Budget: 1 << 20, Repeats: 1 << 10, Workers: 1, Seed: 3})
	if err := c.Call(ctx, "aggregate", daemon.AggregateParams{ID: id}, nil); !errors.Is(err, ErrBusy) {
		t.Errorf("aggregate of a running job: err = %v, want ErrBusy", err)
	}

	other := pipeTo(d)
	defer other.Close()
	var res daemon.CancelResult
	if err := other.Call(ctx, "cancel", daemon.CancelParams{Job: id}, &res); err != nil || !res.Canceled {
		t.Fatalf("cancel job %d: %+v, %v", id, res, err)
	}
	if st := jobState(t, c, id); st.State != "canceled" {
		t.Errorf("canceled job state %q", st.State)
	}
	if err := other.Call(ctx, "cancel", daemon.CancelParams{Job: id}, &res); err != nil || res.Canceled {
		t.Errorf("second cancel: %+v, %v; want canceled=false", res, err)
	}
	if err := other.Call(ctx, "cancel", daemon.CancelParams{Job: id + 100}, &res); !errors.Is(err, ErrBadRequest) {
		t.Errorf("cancel of an unknown job: err = %v, want ErrBadRequest", err)
	}
}
