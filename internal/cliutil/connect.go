package cliutil

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

// Connect returns the client a single-process CLI (psspattack, psspload,
// psspfuzz) runs its one job path through. With remote it dials the psspd
// daemon there. Otherwise it serves an in-process daemon over a net.Pipe,
// backed by the artifact store at storeDir when set — so the job, its
// progress events, cancellation and canceled partials take the same code
// locally as on a remote daemon, and local output equals -remote output
// because the path is the same. storeDir is rejected with remote: a psspd
// daemon manages its own store (psspd -store).
//
// stop closes the client; for an in-process daemon it also drains the
// daemon, prints the store's "prog: store: hits=… misses=…" counters to
// stderr and closes the store.
func Connect(prog, remote, storeDir string) (c *client.Client, stop func(), err error) {
	if remote != "" {
		if storeDir != "" {
			return nil, nil, errors.New("-store applies to local runs; a psspd daemon manages its own store (psspd -store)")
		}
		if c, err = client.Dial(remote); err != nil {
			return nil, nil, err
		}
		return c, func() { c.Close() }, nil
	}
	var st *pssp.Store
	if storeDir != "" {
		if st, err = pssp.OpenStore(storeDir); err != nil {
			return nil, nil, err
		}
	}
	d := daemon.New(daemon.Config{Store: st})
	c = Pipe(d)
	return c, func() {
		c.Close()
		d.Shutdown(context.Background())
		if st != nil {
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "%s: store: hits=%d misses=%d\n", prog, ss.Hits, ss.Misses)
			st.Close()
		}
	}, nil
}

// Pipe returns a client of d over a net.Pipe: an in-process job path that
// is the wire path, byte for byte.
func Pipe(d *daemon.Daemon) *client.Client {
	cliEnd, srvEnd := net.Pipe()
	go d.ServeConn(srvEnd)
	return client.NewConn(cliEnd)
}
