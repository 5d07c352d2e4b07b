// Package client is the Go client for psspd's newline-delimited JSON-RPC
// protocol (see package daemon). It backs the -remote mode of psspattack,
// psspload and psspfuzz: the CLI builds the same params it would run
// locally, ships them to the daemon, and re-emits the returned report —
// byte-identical for a fixed seed.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/daemon"
)

// Sentinel errors mapped from the daemon's stable wire codes; match with
// errors.Is.
var (
	// ErrQuota: the tenant exhausted its resource quota.
	ErrQuota = errors.New("client: tenant quota exceeded")
	// ErrBusy: the daemon's admission queue is full.
	ErrBusy = errors.New("client: daemon busy")
	// ErrCanceled: the job was canceled before producing a report.
	ErrCanceled = errors.New("client: job canceled")
	// ErrShutdown: the daemon is shutting down.
	ErrShutdown = errors.New("client: daemon shutting down")
	// ErrBadRequest: the daemon rejected the request as malformed.
	ErrBadRequest = errors.New("client: bad request")
)

// RPCError is a daemon-reported failure: the stable code plus its message.
// errors.Is maps the known codes onto the package sentinels.
type RPCError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *RPCError) Error() string { return fmt.Sprintf("psspd: %s: %s", e.Code, e.Message) }

// Is wires the code taxonomy into errors.Is.
func (e *RPCError) Is(target error) bool {
	switch target {
	case ErrQuota:
		return e.Code == daemon.CodeQuota
	case ErrBusy:
		return e.Code == daemon.CodeBusy
	case ErrCanceled:
		return e.Code == daemon.CodeCanceled
	case ErrShutdown:
		return e.Code == daemon.CodeShutdown
	case ErrBadRequest:
		return e.Code == daemon.CodeBadRequest
	case context.Canceled:
		// A canceled job surfaces as context.Canceled too, so remote and
		// local cancellation classify the same way.
		return e.Code == daemon.CodeCanceled
	}
	return false
}

// Client is one connection to a psspd daemon. It is safe for concurrent
// Call use: a single reader goroutine demultiplexes interleaved response
// lines by request id.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	enc     *json.Encoder

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	readErr error
	done    chan struct{}
}

// call is one in-flight request.
type call struct {
	events func(daemon.ProgressEvent)
	final  chan daemon.Response
}

// Dial tuning: a daemon that is still binding its socket (or restarting
// under a supervisor) refuses connections transiently, so Dial absorbs
// refusals with capped backoff for a bounded window instead of failing the
// first CLI invocation of a fresh deployment.
const (
	dialRetryWindow = 2 * time.Second
	dialBackoffMin  = 10 * time.Millisecond
	dialBackoffMax  = 250 * time.Millisecond
)

// Dial connects to a daemon address: "unix:/path/to.sock" or
// "tcp:host:port" (a bare "host:port" defaults to TCP). Transient refusals
// — connection refused, or a unix socket path not created yet — are retried
// with capped backoff for a bounded window; other errors fail immediately.
func Dial(addr string) (*Client, error) {
	network, target := daemon.SplitAddr(addr)
	deadline := time.Now().Add(dialRetryWindow)
	backoff := dialBackoffMin
	for {
		conn, err := net.Dial(network, target)
		if err == nil {
			return NewConn(conn), nil
		}
		transient := errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, os.ErrNotExist)
		if !transient || time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// NewConn wraps an established connection as a Client and starts its reader
// goroutine. The fabric coordinator uses it to speak the protocol over
// worker connections that dialed in (role-flipped `psspd -worker` joins);
// everything else should use Dial.
func NewConn(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// readLoop demultiplexes daemon lines onto pending calls.
func (c *Client) readLoop() {
	defer close(c.done)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp daemon.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			continue // tolerate junk lines; the final response re-syncs us
		}
		c.mu.Lock()
		p := c.pending[resp.ID]
		if p != nil && resp.Event == "" {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if p == nil {
			continue
		}
		if resp.Event != "" {
			if p.events != nil {
				var ev daemon.ProgressEvent
				if json.Unmarshal(resp.Result, &ev) == nil {
					p.events(ev)
				}
			}
			continue
		}
		p.final <- resp
	}
	err := sc.Err()
	if err == nil {
		err = errors.New("client: connection closed")
	}
	c.mu.Lock()
	c.readErr = err
	pending := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, p := range pending {
		close(p.final)
	}
}

// Option configures one Call.
type Option func(*callOpts)

type callOpts struct {
	tenant string
	events func(daemon.ProgressEvent)
}

// WithTenant names the calling tenant (daemon default: "default").
func WithTenant(name string) Option { return func(o *callOpts) { o.tenant = name } }

// WithEvents streams the job's progress events to fn (called from the
// client's reader goroutine — keep it quick).
func WithEvents(fn func(daemon.ProgressEvent)) Option {
	return func(o *callOpts) { o.events = fn }
}

// Call runs one method and decodes its result into result (which may be
// nil to discard). On ctx cancellation it asks the daemon to cancel the
// job and waits for the (typically canceled) terminal response, so the
// remote job never outlives the caller silently. Daemon-reported failures
// return *RPCError values matching the package sentinels.
func (c *Client) Call(ctx context.Context, method string, params any, result any, opts ...Option) error {
	var o callOpts
	for _, opt := range opts {
		opt(&o)
	}
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("client: encoding params: %w", err)
		}
		raw = b
	}

	p := &call{events: o.events, final: make(chan daemon.Response, 1)}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = p
	c.mu.Unlock()

	debugLog("client: call %d %s", id, method)
	if err := c.send(daemon.Request{ID: id, Method: method, Tenant: o.tenant, Params: raw}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}

	var resp daemon.Response
	var ok bool
	select {
	case resp, ok = <-p.final:
	case <-ctx.Done():
		// Best-effort remote cancel, then wait for the terminal response
		// alone, so the result (possibly a flagged partial report) is not
		// lost.
		c.cancel(id)
		resp, ok = <-p.final
	}
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return err
	}
	if resp.Error != nil {
		debugLog("client: call %d %s failed: %s %s", id, method, resp.Error.Code, resp.Error.Message)
		return &RPCError{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	debugLog("client: call %d %s ok", id, method)
	if result == nil || len(resp.Result) == 0 {
		return nil
	}
	if err := json.Unmarshal(resp.Result, result); err != nil {
		return fmt.Errorf("client: decoding %s result: %w", method, err)
	}
	return nil
}

// cancel asks the daemon to cancel request id; failures are ignored (the
// connection teardown path also cancels server-side).
func (c *Client) cancel(id uint64) {
	raw, _ := json.Marshal(daemon.CancelParams{ID: id})
	c.mu.Lock()
	c.nextID++
	cid := c.nextID
	c.mu.Unlock()
	c.send(daemon.Request{ID: cid, Method: "cancel", Params: raw})
}

// send writes one request line.
func (c *Client) send(req daemon.Request) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.enc.Encode(req)
}

// Stats fetches the daemon's stats snapshot.
func (c *Client) Stats(ctx context.Context) (daemon.Stats, error) {
	var st daemon.Stats
	err := c.Call(ctx, "stats", nil, &st)
	return st, err
}

// Ping round-trips the connection.
func (c *Client) Ping(ctx context.Context) error {
	return c.Call(ctx, "ping", nil, nil)
}
