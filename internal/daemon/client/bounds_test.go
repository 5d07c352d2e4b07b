package client

import (
	"context"
	"errors"
	"testing"

	"repro/internal/daemon"
)

// TestRemoteJobCountBounds sends the request that once killed psspd with
// one line — a closed-loop loadtest asking for 1<<62 clients — over a unix
// socket. It must come back as a bad request, and the same connection must
// then run a normal job.
func TestRemoteJobCountBounds(t *testing.T) {
	c, _ := startDaemon(t, daemon.Config{})
	ctx := context.Background()
	huge := daemon.LoadParams{App: "nginx", Scheme: "ssp", Arrivals: "closed", Clients: 1 << 62, Requests: 1, Seed: 3}
	if err := c.Call(ctx, "loadtest", huge, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("loadtest with 1<<62 clients: err = %v, want ErrBadRequest", err)
	}
	var rep daemon.LoadResult
	normal := daemon.LoadParams{App: "nginx", Scheme: "ssp", Arrivals: "closed", Clients: 1, Requests: 1, Seed: 3}
	if err := c.Call(ctx, "loadtest", normal, &rep); err != nil {
		t.Fatalf("normal loadtest after the rejection: %v", err)
	}
	if rep.Report == nil || rep.Report.Requests != 1 {
		t.Fatalf("normal loadtest report %+v, want 1 request", rep.Report)
	}
}
