package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"
)

// SplitAddr parses a daemon address — "unix:/path/to.sock", "tcp:host:port",
// or a bare "host:port" (TCP) — into the (network, address) pair net.Dial
// and net.Listen expect. Shared by the client library and the worker's join
// dialer so every component accepts the same address syntax.
func SplitAddr(addr string) (network, target string) {
	network, target = "tcp", addr
	switch {
	case strings.HasPrefix(addr, "unix:"):
		network, target = "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		target = strings.TrimPrefix(addr, "tcp:")
	}
	return network, target
}

// Worker join/backoff tuning. Workers may start before their coordinator
// listens (and outlive one-shot coordinators between jobs), so the dial
// loop retries forever with capped backoff instead of failing.
const (
	workerBackoffMin = 100 * time.Millisecond
	workerBackoffMax = 2 * time.Second
	joinTimeout      = 10 * time.Second
)

// Worker runs the daemon as a fabric worker — the `psspd -worker -join`
// mode. It dials the coordinator at addr, registers under name, and then
// serves the outbound connection exactly like an accepted one: the roles
// flip, and the coordinator becomes a client issuing shard-lease requests
// against the worker. On connection loss (coordinator restart,
// lease-timeout eviction) the worker rejoins with capped backoff.
//
// Worker returns nil once the daemon shuts down, or ctx.Err() when ctx is
// canceled.
func (d *Daemon) Worker(ctx context.Context, addr, name string) error {
	backoff := workerBackoffMin
	for {
		if d.isClosed() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		network, target := SplitAddr(addr)
		conn, err := net.Dial(network, target)
		if err == nil {
			err = d.join(conn, name)
			if err == nil {
				backoff = workerBackoffMin
				continue
			}
			conn.Close()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > workerBackoffMax {
			backoff = workerBackoffMax
		}
	}
}

// join performs the register handshake on a fresh coordinator connection
// and, on ack, serves it until it drops. The handshake is strictly
// half-duplex — the worker sends one register line and the coordinator
// sends nothing until its one-line ack — so the buffered reader cannot
// swallow post-handshake requests; ServeConn reads through it regardless.
func (d *Daemon) join(conn net.Conn, name string) error {
	params, err := json.Marshal(RegisterParams{Name: name, Pid: os.Getpid()})
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(joinTimeout))
	if err := json.NewEncoder(conn).Encode(Request{ID: 1, Method: "register", Params: params}); err != nil {
		return fmt.Errorf("daemon: sending register: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	line, err := ReadLine(br)
	if err != nil {
		return fmt.Errorf("daemon: reading register ack: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("daemon: malformed register ack: %w", err)
	}
	if resp.Error != nil {
		return errors.New("daemon: register rejected: " + resp.Error.Message)
	}
	conn.SetDeadline(time.Time{})
	return d.ServeConn(BufferedConn{conn, br})
}

// BufferedConn is a connection whose reads drain R, a reader that may hold
// bytes already read from it: the worker's register ack reader, and the
// coordinator's first-line sniff.
type BufferedConn struct {
	net.Conn
	R io.Reader
}

func (c BufferedConn) Read(p []byte) (int, error) { return c.R.Read(p) }
