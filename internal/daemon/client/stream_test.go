package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
)

// TestProgressEventThrottleBound pins the wire throttle: however fast the
// engine ticks, a job may stream at most one progress event per 100ms
// (daemon.eventInterval), and the events it does stream arrive in order.
func TestProgressEventThrottleBound(t *testing.T) {
	c, _ := startDaemon(t, daemon.Config{})
	var events []daemon.ProgressEvent
	start := time.Now()
	err := c.Call(context.Background(), "attack", daemon.AttackParams{
		Scheme: "p-ssp", Budget: 64, Repeats: 4096, Workers: 1, Seed: 8,
	}, nil, WithEvents(func(ev daemon.ProgressEvent) { events = append(events, ev) }))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events streamed")
	}
	// The 100ms send-side throttle admits at most elapsed/100ms events
	// (plus the unthrottled first one, plus one for interval straddle).
	limit := int(elapsed/(100*time.Millisecond)) + 2
	if len(events) > limit {
		t.Fatalf("%d events in %v exceeds the throttle bound %d", len(events), elapsed, limit)
	}
	// In order: completed-replication counts never go backwards, because
	// events are emitted and written under one serialized stream.
	last := 0
	for i, ev := range events {
		if ev.Campaign == nil {
			t.Fatalf("event %d has no campaign payload: %+v", i, ev)
		}
		if ev.Campaign.Completed < last {
			t.Fatalf("event %d went backwards: completed %d after %d", i, ev.Campaign.Completed, last)
		}
		last = ev.Campaign.Completed
	}
}

// TestCancelMidStreamNoGoroutineLeak cancels a job from inside its own
// event callback — the nastiest re-entrant moment — and verifies the
// flagged partial is delivered, no further events arrive after the final
// response, and teardown returns the process to its goroutine baseline.
func TestCancelMidStreamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	sock := filepath.Join(t.TempDir(), "psspd.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	d := daemon.New(daemon.Config{})
	go d.Serve(lis)
	c, err := Dial("unix:" + sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	var rep daemon.AttackReport
	err = c.Call(ctx, "attack", daemon.AttackParams{
		Scheme: "p-ssp", Budget: 64, Repeats: 1 << 16, Workers: 1, Seed: 13,
	}, &rep, WithEvents(func(daemon.ProgressEvent) {
		events.Add(1)
		cancel()
	}))
	if err != nil {
		t.Fatalf("canceled call should deliver the partial report, got %v", err)
	}
	if !rep.Canceled {
		t.Fatal("partial report not flagged canceled")
	}
	// The terminal response retires the call; the stream must be dead.
	after := events.Load()
	time.Sleep(200 * time.Millisecond)
	if n := events.Load(); n != after {
		t.Fatalf("%d event(s) arrived after the final response", n-after)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The canceled campaign's workers unwind asynchronously; poll briefly
	// before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after cancel+shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCanceledCallWaitsWithoutSpinning: once its context is done, Call
// sends cancel and blocks on the terminal reply. A fake daemon holds that
// reply for half a second; the process must burn well under that much CPU
// meanwhile (a Call that kept selecting on the closed Done channel spun a
// CPU for the whole wait).
func TestCanceledCallWaitsWithoutSpinning(t *testing.T) {
	const hold = 500 * time.Millisecond
	cliEnd, srvEnd := net.Pipe()
	c := NewConn(cliEnd)
	defer c.Close()
	go func() {
		sc := bufio.NewScanner(srvEnd)
		enc := json.NewEncoder(srvEnd)
		var job daemon.Request
		for sc.Scan() {
			var req daemon.Request
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				return
			}
			if req.Method != "cancel" {
				job = req
				continue
			}
			time.Sleep(hold)
			enc.Encode(daemon.Response{ID: job.ID, Error: &daemon.Error{Code: daemon.CodeCanceled, Message: "canceled"}})
		}
	}()

	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := cpu()
	err := c.Call(ctx, "attack", daemon.AttackParams{Seed: 1}, nil)
	used := cpu() - before
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want the canceled reply, got %v", err)
	}
	if used > hold/4 {
		t.Errorf("waiting %v for the canceled reply used %v of CPU", hold, used)
	}
}
