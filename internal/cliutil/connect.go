package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

// Conn holds the connection flags of a kind CLI (psspattack, psspload,
// psspfuzz): where its job runs.
type Conn struct{ Remote, Store, Tenant string }

// ConnFlags registers the connection flags on fs.
func ConnFlags(fs *flag.FlagSet) *Conn {
	cn := new(Conn)
	fs.StringVar(&cn.Store, "store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
	fs.StringVar(&cn.Remote, "remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
	fs.StringVar(&cn.Tenant, "tenant", "", "tenant name presented to the daemon (default \"default\")")
	return cn
}

// Run runs j as prog, admitted under cn's tenant. With -remote it runs on
// the psspd daemon there. Otherwise it runs on a daemon served in process
// over a net.Pipe, backed by the artifact store at -store when set — so
// the job, its progress events, cancellation and canceled partials take
// the same code locally as on a remote daemon, and local output equals
// -remote output because the path is the same; on exit the local daemon
// drains and the store's "prog: store: hits=… misses=…" counters go to
// stderr. -store is rejected with -remote: a psspd daemon manages its own
// store (psspd -store). A flag j cannot resolve fails before anything is
// dialed or opened.
func (cn *Conn) Run(prog string, j Job) error {
	_, err := j.Params()
	var c *client.Client
	switch {
	case err != nil:
		return err
	case cn.Remote != "" && cn.Store != "":
		return errors.New("-store applies to local runs; a psspd daemon manages its own store (psspd -store)")
	case cn.Remote != "":
		if c, err = client.Dial(cn.Remote); err != nil {
			return err
		}
	default:
		var st *pssp.Store
		if cn.Store != "" {
			if st, err = pssp.OpenStore(cn.Store); err != nil {
				return err
			}
			defer func() {
				ss := st.Stats()
				fmt.Fprintf(os.Stderr, "%s: store: hits=%d misses=%d\n", prog, ss.Hits, ss.Misses)
				st.Close()
			}()
		}
		d := daemon.New(daemon.Config{Store: st})
		defer d.Shutdown(context.Background())
		c = Pipe(d)
	}
	defer c.Close()
	return j.Run(context.Background(), prog, c, client.WithTenant(cn.Tenant))
}

// Pipe returns a client of d over a net.Pipe: an in-process job path that
// is the wire path, byte for byte.
func Pipe(d *daemon.Daemon) *client.Client {
	cliEnd, srvEnd := net.Pipe()
	go d.ServeConn(srvEnd)
	return client.NewConn(cliEnd)
}

// Listen listens on addr (unix:/path or host:port), first removing the
// unix socket file an earlier run may have left, which would fail the
// bind. Closing the listener removes its socket file again.
func Listen(addr string) (net.Listener, error) {
	network, target := daemon.SplitAddr(addr)
	if network == "unix" {
		os.Remove(target)
	}
	return net.Listen(network, target)
}
