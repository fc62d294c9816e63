// Package wire is a small request/response RPC framework over TCP, the
// stand-in for the Apache Thrift control-message transport the Mayflower
// prototype used (§5 of the paper).
//
// Messages are length-prefixed JSON frames. A server registers named
// handlers; a client multiplexes concurrent calls over one connection and
// honours context deadlines. Remote handler failures surface as
// *RemoteError so callers can distinguish transport problems from
// application errors.
//
// Deadlines and cancellation propagate across the wire (DESIGN.md §13):
// a request frame carries the caller's remaining deadline, which the
// server installs on the handler's context, and a client that abandons a
// call (its context cancelled or expired) sends a cancel frame so the
// server stops doing work whose result nobody will read.
//
// This package is the framing layer only. Control-plane consumers do not
// dial it directly: connection lifecycle (pooling, reconnection, retry,
// metrics) belongs to internal/rpc, which is the sole caller of
// DialContext — a repo test enforces that no other package dials wire.
package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a single message; control messages are small, so this
// is purely a defense against corrupt length prefixes.
const maxFrame = 16 << 20

// ErrClosed is returned for operations on a closed client or server.
var ErrClosed = errors.New("wire: closed")

// Error codes carried alongside a remote error message so context
// sentinels survive the JSON round trip: with deadlines propagating to
// the server, a handler may observe the caller's timeout first and
// report it as its own error — the caller must still see
// errors.Is(err, context.DeadlineExceeded) succeed.
const (
	codeDeadline = "deadline"
	codeCanceled = "canceled"
)

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Method string
	Msg    string
	// Code classifies context-cancellation errors ("deadline" or
	// "canceled"); empty for ordinary application errors.
	Code string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote %s: %s", e.Method, e.Msg)
}

// Is maps coded remote errors back onto the context sentinels, so a
// handler that surfaced the propagated deadline still matches
// errors.Is(err, context.DeadlineExceeded) at the caller.
func (e *RemoteError) Is(target error) bool {
	switch e.Code {
	case codeDeadline:
		return target == context.DeadlineExceeded
	case codeCanceled:
		return target == context.Canceled
	}
	return false
}

// UnsentError wraps a transport failure that occurred before the request
// reached the wire: the remote handler cannot have run, so a session
// layer may safely retry the call on a fresh connection — even for
// non-idempotent methods. Failures after the frame was fully written are
// never wrapped (the handler may have executed).
type UnsentError struct {
	Err error
}

// Error implements the error interface.
func (e *UnsentError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *UnsentError) Unwrap() error { return e.Err }

// request is the client→server frame. A frame with Cancel set carries no
// method or params: it asks the server to cancel the in-flight call with
// the same ID, and no response follows.
type request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	// TimeoutMs is the caller's remaining deadline in milliseconds at
	// send time (0 = no deadline). A relative duration rather than an
	// absolute timestamp so the contract survives clock skew between
	// peers.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Cancel marks a cancel frame for an abandoned call.
	Cancel bool `json:"cancel,omitempty"`
}

type response struct {
	ID      uint64          `json:"id"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	ErrCode string          `json:"errCode,omitempty"`
}

// writeFrame sends the length prefix and the body as two writes, and the
// session layer's transparent redial depends on that. When the peer has
// closed the connection, the first write still succeeds on loopback, the
// peer answers it with a reset, and the second write fails (EPIPE). A
// failed write makes the call an *UnsentError, which rpc.Peer retries on
// a fresh session. With one write per frame (net.Buffers) the whole
// request goes out, and the call fails after the send with "connection
// lost: EOF" (TestPeerReconnectsAcrossServerRestart in internal/rpc).
func writeFrame(w io.Writer, mu *sync.Mutex, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	mu.Lock()
	defer mu.Unlock()
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readBufCap caps the upfront buffer reservation while a frame's body
// arrives. The length prefix is untrusted until that many bytes actually
// show up, so a corrupt prefix must not cost a maxFrame-sized
// allocation; frames larger than this (rare — control messages are
// small) grow the buffer as data arrives.
const readBufCap = 64 << 10

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	var body bytes.Buffer
	grow := n
	if grow > readBufCap {
		grow = readBufCap
	}
	body.Grow(int(grow))
	m, err := body.ReadFrom(io.LimitReader(r, n))
	if err != nil {
		return err
	}
	if m < n {
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(body.Bytes(), v)
}

// Handler processes one request's parameters and returns a result to be
// JSON-encoded, or an error that is reported to the caller. The context
// carries the caller's deadline (when the request frame had one) and is
// cancelled when the caller abandons the call or the connection drops.
type Handler func(ctx context.Context, params json.RawMessage) (any, error)

// Server dispatches wire requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	limits   map[string]int // per-method inflight caps
	inflight map[string]int // per-method live handler counts
	ln       net.Listener
	conns    map[net.Conn]struct{}
	serving  bool
	draining bool
	closed   bool
	wg       sync.WaitGroup // connection goroutines
	calls    sync.WaitGroup // in-flight handler goroutines (for Drain)
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		limits:   make(map[string]int),
		inflight: make(map[string]int),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Register installs a handler for a method name. Registering a duplicate
// method or registering after Serve has started is an error.
func (s *Server) Register(method string, h Handler) error {
	if method == "" || h == nil {
		return errors.New("wire: empty method or nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serving {
		return fmt.Errorf("wire: register %q after Serve started", method)
	}
	if _, dup := s.handlers[method]; dup {
		return fmt.Errorf("wire: duplicate method %q", method)
	}
	s.handlers[method] = h
	return nil
}

// SetInflightLimit caps concurrent in-flight calls of one method; excess
// requests are rejected immediately with a *RemoteError instead of
// queueing, so one slow method cannot absorb every handler goroutine.
// Zero (the default) means unlimited. Like Register, limits must be set
// before Serve starts.
func (s *Server) SetInflightLimit(method string, max int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serving {
		return fmt.Errorf("wire: set limit for %q after Serve started", method)
	}
	if max <= 0 {
		delete(s.limits, method)
		return nil
	}
	s.limits[method] = max
	return nil
}

// Inflight returns the number of currently executing handlers.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.inflight {
		n += c
	}
	return n
}

// Serve accepts connections on ln until the server is closed. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.serving = true
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until closed.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// admit decides how to dispatch one request: it resolves the handler,
// applies draining and per-method inflight caps, and (when admitted)
// counts the call in. The returned release func must be called when the
// handler finishes; reject is a non-"" error message to answer with
// instead of running a handler.
func (s *Server) admit(method string) (h Handler, release func(), reject string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, nil, "server draining"
	}
	h = s.handlers[method]
	if h == nil {
		return nil, nil, fmt.Sprintf("unknown method %q", method)
	}
	if max := s.limits[method]; max > 0 && s.inflight[method] >= max {
		return nil, nil, fmt.Sprintf("too many in-flight %s calls (limit %d)", method, max)
	}
	s.inflight[method]++
	s.calls.Add(1)
	release = func() {
		s.mu.Lock()
		s.inflight[method]--
		s.mu.Unlock()
		s.calls.Done()
	}
	return h, release, ""
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	var writeMu sync.Mutex
	var handlerWG sync.WaitGroup
	// Per-call cancel funcs, keyed by request id, so a cancel frame (or a
	// completed handler) can release exactly its own call.
	var liveMu sync.Mutex
	live := make(map[uint64]context.CancelFunc)
	// LIFO: cancel in-flight handlers first, then wait for them to drain.
	defer handlerWG.Wait()
	defer cancel()
	for {
		var req request
		if err := readFrame(conn, &req); err != nil {
			return
		}
		if req.Cancel {
			// The caller abandoned the call: cancel its handler context.
			// The handler still writes a response (which the caller
			// ignores); an id with no live handler is a no-op.
			liveMu.Lock()
			if stop := live[req.ID]; stop != nil {
				stop()
			}
			liveMu.Unlock()
			continue
		}

		h, release, reject := s.admit(req.Method)
		if reject != "" {
			handlerWG.Add(1)
			go func(id uint64, msg string) {
				defer handlerWG.Done()
				_ = writeFrame(conn, &writeMu, &response{ID: id, Error: msg})
			}(req.ID, reject)
			continue
		}

		// The handler context: bounded by the caller's propagated
		// deadline, cancelled by a cancel frame or connection loss.
		callCtx, stop := context.WithCancel(ctx)
		if req.TimeoutMs > 0 {
			stop() // replace the plain cancel with a deadline-carrying one
			callCtx, stop = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		}
		liveMu.Lock()
		live[req.ID] = stop
		liveMu.Unlock()

		handlerWG.Add(1)
		go func(req request, callCtx context.Context, stop context.CancelFunc) {
			defer handlerWG.Done()
			defer release()
			defer func() {
				liveMu.Lock()
				delete(live, req.ID)
				liveMu.Unlock()
				stop()
			}()
			resp := response{ID: req.ID}
			if result, err := h(callCtx, req.Params); err != nil {
				resp.Error = err.Error()
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					resp.ErrCode = codeDeadline
				case errors.Is(err, context.Canceled):
					resp.ErrCode = codeCanceled
				}
			} else if result != nil {
				body, err := json.Marshal(result)
				if err != nil {
					resp.Error = fmt.Sprintf("marshal result: %v", err)
				} else {
					resp.Result = body
				}
			}
			// A write failure means the connection is gone; the read
			// loop will notice and clean up.
			_ = writeFrame(conn, &writeMu, &resp)
		}(req, callCtx, stop)
	}
}

// Addr returns the listener address, if serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Drain gracefully quiesces the server: the listener closes, new
// requests on existing connections are answered with a "server draining"
// error, and Drain waits — bounded by ctx — for in-flight handlers to
// finish so their responses still reach callers. Connections stay open
// until Close. Draining is terminal: there is no undrain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.calls.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the listener, closes every connection, and waits for
// in-flight handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a wire RPC client multiplexing calls over one connection.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan response
	nextID  uint64
	closed  bool
	readErr error
}

// DialContext connects to a wire server, honouring ctx cancellation and
// deadline during the TCP connect: cancelling the context aborts an
// in-flight dial promptly, with no connection left behind. This is the
// only dial this package offers — internal/rpc owns every control-plane
// connection and is its sole caller outside tests.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan response),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		var resp response
		if err := readFrame(c.conn, &resp); err != nil {
			c.failAll(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
}

// Err reports the connection's terminal state: nil while the session is
// healthy, ErrClosed after Close, or the transport error that killed the
// read loop. A session layer uses this to discard dead cached
// connections before sending on them.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.readErr
}

// Call invokes method with params (JSON-encoded) and decodes the result
// into result (unless nil). It respects ctx cancellation and deadlines:
// the remaining deadline travels with the request frame (the server
// bounds the handler context with it), and abandoning the call sends a
// cancel frame so the server stops the handler. Failures from before the
// request reached the wire are wrapped in *UnsentError (safe to retry on
// a fresh connection).
func (c *Client) Call(ctx context.Context, method string, params, result any) error {
	var raw json.RawMessage
	if params != nil {
		body, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("wire: marshal params: %w", err)
		}
		raw = body
	}

	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return &UnsentError{Err: ErrClosed}
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return &UnsentError{Err: err}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	req := request{ID: id, Method: method, Params: raw}
	if deadline, ok := ctx.Deadline(); ok {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			// Already (nearly) expired: still send a positive bound so the
			// server-side contract "frame deadline ⇒ handler deadline"
			// holds; the caller's own select fires immediately anyway.
			ms = 1
		}
		req.TimeoutMs = ms
	}
	if err := writeFrame(c.conn, &c.writeMu, &req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A partial frame is unparseable, so the handler cannot have run.
		return &UnsentError{Err: err}
	}

	select {
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// Tell the server to stop working on the abandoned call.
		// Best-effort: a dead connection cleans up server-side anyway.
		_ = writeFrame(c.conn, &c.writeMu, &request{ID: id, Cancel: true})
		return ctx.Err()
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		if resp.Error != "" {
			return &RemoteError{Method: method, Msg: resp.Error, Code: resp.ErrCode}
		}
		if result != nil {
			if len(resp.Result) == 0 {
				return fmt.Errorf("wire: %s returned no result", method)
			}
			if err := json.Unmarshal(resp.Result, result); err != nil {
				return fmt.Errorf("wire: decode result: %w", err)
			}
		}
		return nil
	}
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
