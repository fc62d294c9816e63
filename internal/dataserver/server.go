package dataserver

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Control RPC method names served by a dataserver.
const (
	MethodPrepare   = "ds.Prepare"
	MethodAppend    = "ds.Append"
	MethodAppendAt  = "ds.AppendAt"
	MethodDelete    = "ds.Delete"
	MethodStat      = "ds.Stat"
	MethodListFiles = "ds.ListFiles"
	MethodScrub     = "ds.Scrub"
)

// MaxAppend bounds a single append RPC; the client library splits larger
// writes.
const MaxAppend = 8 << 20

// Pacer shapes the dataserver's bulk read streams. The emulated
// datacenter network implements it to enforce link sharing; NopPacer runs
// at full speed.
type Pacer interface {
	// Writer wraps w so that writes count against (and are paced as)
	// the given flow.
	Writer(flowID uint64, w io.Writer) io.Writer
}

// NopPacer performs no pacing.
type NopPacer struct{}

// Writer returns w unchanged.
func (NopPacer) Writer(_ uint64, w io.Writer) io.Writer { return w }

var _ Pacer = NopPacer{}

// Config describes a dataserver instance.
type Config struct {
	// ID is the server's stable identity.
	ID string
	// Root is the chunk store directory.
	Root string
	// Host is the topology host name this server runs on.
	Host string
	// Pod and Rack are the server's fault-domain coordinates.
	Pod, Rack int
	// Pacer shapes bulk reads; nil means NopPacer.
	Pacer Pacer
	// HeartbeatInterval is how often the server reports liveness to the
	// nameserver (1 s if zero; 0 heartbeats are never sent when no
	// nameserver is configured).
	HeartbeatInterval time.Duration
	// FlowserverAddr, when set, makes this server (as a file's primary)
	// ask the Flowserver to order its replication fan-out and register
	// each relay hop as a scheduled flow. Empty keeps the static replica
	// order with no flow registration.
	FlowserverAddr string
	// FlowDirectoryAddr, when set (and FlowserverAddr is not), routes
	// relay planning through the flowctl shard directory: the server
	// resolves the shard owning its own Pod and re-resolves when the
	// directory epoch bumps (shard failover) or a call fails. Static
	// FlowserverAddr wins when both are set.
	FlowDirectoryAddr string
	// FlowRouteTTL is how long a resolved shard route is reused before
	// consulting the directory again (5 s if zero; negative re-resolves
	// on every relay plan — useful in tests).
	FlowRouteTTL time.Duration
	// ConnectTimeout bounds each control-plane TCP connect (nameserver,
	// flowserver, replica peers); rpc.DefaultConnectTimeout if zero.
	ConnectTimeout time.Duration
	// Metrics optionally publishes the server's write-path counters under
	// "dataserver.<ID>." names. Instrumentation is always on.
	Metrics *obs.Registry
	// Logger receives non-fatal warnings; nil discards them.
	Logger *log.Logger
}

// dsMetrics counts the write path: appends ordered as primary, re-sent
// pieces absorbed by the sequence dedupe, and how the relay order was
// chosen (Flowserver-scheduled vs static fallback).
type dsMetrics struct {
	appends        obs.Counter
	appendDedups   obs.Counter
	relayScheduled obs.Counter
	relayStatic    obs.Counter
}

func (m *dsMetrics) register(r *obs.Registry, id string) {
	prefix := "dataserver." + id + "."
	r.RegisterCounter(prefix+"appends", &m.appends)
	r.RegisterCounter(prefix+"append_dedups", &m.appendDedups)
	r.RegisterCounter(prefix+"relays_scheduled", &m.relayScheduled)
	r.RegisterCounter(prefix+"relays_static", &m.relayStatic)
}

// WriteStats is a snapshot of the server's write-path counters.
type WriteStats struct {
	Appends         int64
	AppendDedups    int64
	RelaysScheduled int64
	RelaysStatic    int64
}

// WriteStats returns the server's cumulative write-path counters.
func (s *Server) WriteStats() WriteStats {
	return WriteStats{
		Appends:         s.met.appends.Value(),
		AppendDedups:    s.met.appendDedups.Value(),
		RelaysScheduled: s.met.relayScheduled.Value(),
		RelaysStatic:    s.met.relayStatic.Value(),
	}
}

// Server is a running dataserver: a control RPC endpoint, a bulk data
// endpoint, and the chunk store.
type Server struct {
	cfg   Config
	store *storage
	ctl   *wire.Server
	pool  *rpc.Pool // all outbound control sessions (ns, fs, peers)
	fsc   *flowserver.RPCClient
	fr    *dsFlowRouter // directory-routed alternative to fsc

	mu        sync.Mutex
	dataLn    net.Listener
	ctlAddr   string
	dataAddr  string
	ns        *nameserver.Client
	nsPeer    *rpc.Peer
	dataConns map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
	beatStop  chan struct{}

	met dsMetrics
}

// New creates a dataserver over the given storage root.
func New(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		return nil, errors.New("dataserver: config needs an ID")
	}
	if cfg.Pacer == nil {
		cfg.Pacer = NopPacer{}
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	st, err := openStorage(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: st,
		ctl:   wire.NewServer(),
		pool: rpc.NewPool(rpc.Options{
			ConnectTimeout: cfg.ConnectTimeout,
			Metrics:        cfg.Metrics,
			MetricsPrefix:  "dataserver." + cfg.ID + ".rpc",
		}),
		dataConns: make(map[net.Conn]struct{}),
		beatStop:  make(chan struct{}),
	}
	if cfg.FlowserverAddr != "" {
		s.fsc = flowserver.NewRPCClient(s.pool.Peer(cfg.FlowserverAddr))
	} else if cfg.FlowDirectoryAddr != "" {
		s.fr = newDSFlowRouter(cfg.FlowDirectoryAddr, cfg.Pod, cfg.FlowRouteTTL, s.pool)
	}
	if cfg.Metrics != nil {
		s.met.register(cfg.Metrics, cfg.ID)
	}
	if err := s.registerHandlers(); err != nil {
		return nil, err
	}
	if err := s.registerReplicateHandler(); err != nil {
		return nil, err
	}
	return s, nil
}

// Start begins serving the control and data endpoints on the given
// listeners and registers with the nameserver at nsAddr (skipped when
// empty, for tests that drive the server directly).
func (s *Server) Start(ctlLn, dataLn net.Listener, nsAddr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dataserver: closed")
	}
	s.dataLn = dataLn
	s.ctlAddr = ctlLn.Addr().String()
	s.dataAddr = dataLn.Addr().String()
	s.mu.Unlock()

	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.ctl.Serve(ctlLn)
	}()
	go func() {
		defer s.wg.Done()
		s.serveData(dataLn)
	}()

	if nsAddr == "" {
		return nil
	}
	peer := s.pool.Peer(nsAddr)
	ns := nameserver.NewClient(peer)
	s.mu.Lock()
	s.ns = ns
	s.nsPeer = peer
	s.mu.Unlock()
	info := nameserver.ServerInfo{
		ID:          s.cfg.ID,
		ControlAddr: s.ctlAddr,
		DataAddr:    s.dataAddr,
		Host:        s.cfg.Host,
		Pod:         s.cfg.Pod,
		Rack:        s.cfg.Rack,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ns.Register(ctx, info); err != nil {
		return fmt.Errorf("dataserver: nameserver register: %w", err)
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.heartbeatLoop(peer, ns, info)
	}()
	return nil
}

// heartbeatLoop reports liveness until the server closes. The pooled
// peer redials on its own; what this loop owns is the connection-scoped
// server state on top of it: registration with the nameserver is bound
// to the peer's dial epoch, so after any reconnect (a restarted
// nameserver, a severed link) the server re-registers before heartbeating
// — a restarted nameserver relearns this server instead of declaring it
// dead forever.
func (s *Server) heartbeatLoop(peer *rpc.Peer, ns *nameserver.Client, info nameserver.ServerInfo) {
	registered := peer.Epoch()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.beatStop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HeartbeatInterval)
		if e := peer.Epoch(); e != registered {
			if err := ns.Register(ctx, info); err != nil {
				s.logf("dataserver %s: re-register: %v", s.cfg.ID, err)
				cancel()
				continue
			}
			registered = peer.Epoch()
		}
		err := ns.Heartbeat(ctx, s.cfg.ID)
		cancel()
		if err != nil {
			// A heartbeat that rode a transparent reconnect may land on a
			// restarted nameserver that no longer knows this server; the
			// epoch check above re-registers on the next tick.
			s.logf("dataserver %s: heartbeat: %v", s.cfg.ID, err)
		}
	}
}

// ControlAddr returns the control endpoint address (after Start).
func (s *Server) ControlAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctlAddr
}

// DataAddr returns the bulk data endpoint address (after Start).
func (s *Server) DataAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataAddr
}

// Close stops serving and disconnects from peers and the nameserver.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	dataLn := s.dataLn
	conns := make([]net.Conn, 0, len(s.dataConns))
	for conn := range s.dataConns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	close(s.beatStop)
	err := s.ctl.Close()
	if dataLn != nil {
		dataLn.Close()
	}
	// Sever in-flight bulk streams: a killed server must interrupt its
	// readers (so their failover fires), not leave them mid-stream.
	for _, conn := range conns {
		conn.Close()
	}
	s.pool.Close()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// peer returns the typed control stub for a replica peer, backed by the
// pool's shared session for that address.
func (s *Server) peer(addr string) *Client {
	return NewClient(s.pool.Peer(addr))
}

// --- control plane -------------------------------------------------------

// PrepareArgs creates a file's local state.
type PrepareArgs struct {
	Info nameserver.FileInfo `json:"info"`
	// Relay makes the (primary) receiver propagate the prepare to the
	// other replicas.
	Relay bool `json:"relay,omitempty"`
}

// AppendArgs appends data to a file through its primary. A nonzero Seq
// identifies the piece for deduplication: a re-sent piece (lost ack or
// client failover) with the same Seq is applied at the offset the first
// delivery chose instead of being appended twice.
type AppendArgs struct {
	FileID uuid.UUID `json:"fileId"`
	Name   string    `json:"name"`
	Data   []byte    `json:"data"`
	Seq    uint64    `json:"seq,omitempty"`
}

// AppendAtArgs applies a relayed append at a fixed offset. Seq carries
// the originating piece's sequence number so replicas inherit the dedupe
// state (a replica promoted to primary must recognize re-sent pieces it
// already holds).
type AppendAtArgs struct {
	FileID uuid.UUID `json:"fileId"`
	Offset int64     `json:"offset"`
	Data   []byte    `json:"data"`
	Seq    uint64    `json:"seq,omitempty"`
}

// AppendReply reports the file size after an append.
type AppendReply struct {
	SizeBytes int64 `json:"sizeBytes"`
}

// FileIDArgs addresses a file by id.
type FileIDArgs struct {
	FileID uuid.UUID `json:"fileId"`
}

// StatReply reports a file's local size.
type StatReply struct {
	SizeBytes int64 `json:"sizeBytes"`
}

func (s *Server) registerHandlers() error {
	handlers := map[string]wire.Handler{
		MethodPrepare: func(ctx context.Context, params json.RawMessage) (any, error) {
			var a PrepareArgs
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			return struct{}{}, s.handlePrepare(ctx, a)
		},
		MethodAppend: func(ctx context.Context, params json.RawMessage) (any, error) {
			var a AppendArgs
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			return s.handleAppend(ctx, a)
		},
		MethodAppendAt: func(_ context.Context, params json.RawMessage) (any, error) {
			var a AppendAtArgs
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			fs, err := s.store.get(a.FileID)
			if err != nil {
				return nil, err
			}
			fs.appendMu.Lock()
			size, err := s.store.appendAtLocked(fs, a.FileID, a.Offset, a.Data)
			fs.appendMu.Unlock()
			if err != nil {
				return nil, err
			}
			fs.recordSeq(a.Seq, a.Offset)
			return AppendReply{SizeBytes: size}, nil
		},
		MethodDelete: func(_ context.Context, params json.RawMessage) (any, error) {
			var a FileIDArgs
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			return struct{}{}, s.store.delete(a.FileID)
		},
		MethodStat: func(_ context.Context, params json.RawMessage) (any, error) {
			var a FileIDArgs
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			fs, err := s.store.get(a.FileID)
			if err != nil {
				return nil, err
			}
			return StatReply{SizeBytes: fs.localSize()}, nil
		},
		MethodListFiles: func(_ context.Context, params json.RawMessage) (any, error) {
			return s.store.list(), nil
		},
		MethodScrub: func(_ context.Context, params json.RawMessage) (any, error) {
			faults, err := s.store.scrub()
			if err != nil {
				return nil, err
			}
			if faults == nil {
				faults = []ChunkFault{}
			}
			return faults, nil
		},
	}
	for name, h := range handlers {
		if err := s.ctl.Register(name, h); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) handlePrepare(ctx context.Context, a PrepareArgs) error {
	if err := s.store.prepare(a.Info); err != nil {
		return err
	}
	if !a.Relay {
		return nil
	}
	if a.Info.Primary().ServerID != s.cfg.ID {
		return fmt.Errorf("%w: %s", ErrNotPrimary, s.cfg.ID)
	}
	for _, rep := range a.Info.Replicas[1:] {
		if err := s.peer(rep.ControlAddr).Prepare(ctx, PrepareArgs{Info: a.Info}); err != nil {
			return fmt.Errorf("relay prepare to %s: %w", rep.ServerID, err)
		}
	}
	return nil
}

// handleAppend orders an append as the file's primary: apply locally,
// relay to the other replicas, report the new size to the nameserver.
func (s *Server) handleAppend(ctx context.Context, a AppendArgs) (AppendReply, error) {
	if len(a.Data) > MaxAppend {
		return AppendReply{}, fmt.Errorf("dataserver: append of %d bytes exceeds %d", len(a.Data), MaxAppend)
	}
	fs, err := s.store.get(a.FileID)
	if err != nil {
		return AppendReply{}, err
	}
	info := fs.getInfo()
	if info.Primary().ServerID != s.cfg.ID {
		return AppendReply{}, fmt.Errorf("%w: primary is %s", ErrNotPrimary, info.Primary().ServerID)
	}

	// Hold the append order for the whole relay so concurrent appends
	// see consistent offsets on every replica.
	fs.appendMu.Lock()
	defer fs.appendMu.Unlock()
	s.met.appends.Inc()

	offset := fs.localSize()
	if prev, ok := fs.lookupSeq(a.Seq); ok {
		// Re-sent piece: land it at the offset the first delivery chose.
		// The local apply below no-ops via the duplicate check and the
		// relay heals any replica that missed the original delivery.
		offset = prev
		s.met.appendDedups.Inc()
	} else {
		// Record before applying or relaying: if the relay fails after
		// the local apply, the retry must reuse this offset, not append
		// the piece again after the locally applied bytes.
		fs.recordSeq(a.Seq, offset)
	}
	size, err := s.store.appendAtLocked(fs, a.FileID, offset, a.Data)
	if err != nil {
		return AppendReply{}, err
	}
	order, flows, flowStub := s.planRelay(ctx, info, float64(len(a.Data))*8)
	var relayErr error
	for _, rep := range order {
		if _, err := s.peer(rep.ControlAddr).AppendAt(ctx,
			AppendAtArgs{FileID: a.FileID, Offset: offset, Data: a.Data, Seq: a.Seq}); err != nil {
			relayErr = fmt.Errorf("relay append to %s: %w", rep.ServerID, err)
			break
		}
	}
	s.finishFlows(flowStub, flows)
	if relayErr != nil {
		return AppendReply{}, relayErr
	}

	s.mu.Lock()
	ns := s.ns
	s.mu.Unlock()
	if ns != nil && a.Name != "" {
		if err := ns.ReportSize(ctx, a.Name, size); err != nil {
			// The size report is advisory; readers learn the size from
			// the dataserver on every read anyway.
			s.logf("dataserver %s: report size of %s: %v", s.cfg.ID, a.Name, err)
		}
	}
	return AppendReply{SizeBytes: size}, nil
}

// flowserverRPCTimeout bounds each control exchange with the Flowserver
// on the append relay path; a slow controller must degrade the write to
// static order, not stall it.
const flowserverRPCTimeout = 2 * time.Second

// planRelay orders the replication fan-out for one append. With a
// Flowserver configured the order comes from SelectWritePipeline —
// cheapest hop first, every hop's admission visible to the next — and
// the returned ids keep the transfers registered in the network model
// until finishFlows releases them. Any failure falls back to the static
// replica order: the Flowserver is an optimizer, never a dependency
// (mirroring the read path's degraded mode).
func (s *Server) planRelay(ctx context.Context, info nameserver.FileInfo, bits float64) ([]nameserver.ReplicaLoc, []flowserver.FlowID, *flowserver.RPCClient) {
	rest := info.Replicas[1:]
	if len(rest) == 0 {
		return rest, nil, nil
	}
	sctx, cancel := context.WithTimeout(ctx, flowserverRPCTimeout)
	defer cancel()
	fsc := s.flowStub(sctx)
	if fsc == nil {
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	byHost := make(map[string]nameserver.ReplicaLoc, len(rest))
	hosts := make([]string, len(rest))
	for i, rep := range rest {
		hosts[i] = rep.Host
		byHost[rep.Host] = rep
	}
	args := flowserver.SelectWriteArgs{
		SourceHost:  s.cfg.Host,
		TargetHosts: hosts,
		Bits:        bits,
	}
	as, err := fsc.SelectWrite(sctx, args)
	if err != nil && s.fr != nil && sctx.Err() == nil {
		// The cached shard may have been killed: drop the route,
		// re-resolve (picking up a freshly promoted shard under a newer
		// epoch), and retry once before degrading this append.
		s.fr.invalidate()
		if stub2, rerr := s.fr.stub(sctx); rerr == nil && stub2 != nil {
			fsc = stub2
			as, err = fsc.SelectWrite(sctx, args)
		}
	}
	if err != nil {
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	order := make([]nameserver.ReplicaLoc, 0, len(as))
	flows := make([]flowserver.FlowID, 0, len(as))
	for _, a := range as {
		if !a.Local {
			flows = append(flows, a.FlowID)
		}
		rep, ok := byHost[a.ReplicaHost]
		if !ok {
			break
		}
		order = append(order, rep)
	}
	if len(order) != len(rest) {
		// The schedule does not cover the replica set (e.g. two replicas
		// sharing a host); release what it admitted and go static.
		s.finishFlows(fsc, flows)
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	s.met.relayScheduled.Inc()
	return order, flows, fsc
}

// finishFlows releases relay flow-table entries on a fresh bounded
// context (the append's own context may already be expired), against
// the stub that issued them — under directory routing the releases must
// reach the shard coordinating the flows, not whichever shard a later
// resolution would name.
func (s *Server) finishFlows(fsc *flowserver.RPCClient, flows []flowserver.FlowID) {
	if len(flows) == 0 || fsc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), flowserverRPCTimeout)
	defer cancel()
	for _, id := range flows {
		if err := fsc.Finished(ctx, id); err != nil {
			return
		}
	}
}

// --- data plane ----------------------------------------------------------

// The bulk read protocol: the client sends a fixed 40-byte request
//
//	flowID(8) fileID(16) offset(8) length(8)
//
// and the server replies with status(1); on success the reply continues
// with fileSize(8) followed by exactly length bytes of data, written
// through the pacer. A length of ReadToEnd asks for [offset, fileSize):
// the reader learns how many bytes follow from the fileSize it is sent.
// On failure a message string follows (length-prefixed with 2 bytes).
const (
	dataStatusOK  = byte(0)
	dataStatusErr = byte(1)
)

// ReadToEnd is the ReadRequest length that reads from the offset to the
// replica's local end of file, as of the request's validation. Local
// size only moves once a whole append piece is written, so such a read
// never ends inside a piece.
const ReadToEnd = int64(-1)

// ReadRequest is the bulk read header (exported for the client package).
type ReadRequest struct {
	FlowID uint64
	FileID uuid.UUID
	Offset int64
	Length int64
}

// EncodeReadRequest serializes the request header.
func EncodeReadRequest(r ReadRequest) []byte {
	buf := make([]byte, 40)
	binary.BigEndian.PutUint64(buf[0:8], r.FlowID)
	copy(buf[8:24], r.FileID[:])
	binary.BigEndian.PutUint64(buf[24:32], uint64(r.Offset))
	binary.BigEndian.PutUint64(buf[32:40], uint64(r.Length))
	return buf
}

// DecodeReadRequest parses the request header.
func DecodeReadRequest(buf []byte) (ReadRequest, error) {
	if len(buf) != 40 {
		return ReadRequest{}, errors.New("dataserver: bad read request")
	}
	var r ReadRequest
	r.FlowID = binary.BigEndian.Uint64(buf[0:8])
	copy(r.FileID[:], buf[8:24])
	r.Offset = int64(binary.BigEndian.Uint64(buf[24:32]))
	r.Length = int64(binary.BigEndian.Uint64(buf[32:40]))
	return r, nil
}

func (s *Server) serveData(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.dataConns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.dataConns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveOneRead(conn)
		}()
	}
}

func (s *Server) serveOneRead(conn net.Conn) {
	hdr := make([]byte, 40)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return
	}
	req, err := DecodeReadRequest(hdr)
	if err != nil {
		return
	}

	fail := func(err error) {
		msg := err.Error()
		if len(msg) > 65535 {
			msg = msg[:65535]
		}
		buf := make([]byte, 3+len(msg))
		buf[0] = dataStatusErr
		binary.BigEndian.PutUint16(buf[1:3], uint16(len(msg)))
		copy(buf[3:], msg)
		_, _ = conn.Write(buf)
	}

	// Validate before committing to a success header.
	fs, err := s.store.get(req.FileID)
	if err != nil {
		fail(err)
		return
	}
	size := fs.localSize()
	if req.Length == ReadToEnd && req.Offset >= 0 && req.Offset <= size {
		req.Length = size - req.Offset
	}
	if req.Offset < 0 || req.Length < 0 || req.Offset+req.Length > size {
		fail(fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, req.Offset, req.Offset+req.Length, size))
		return
	}

	var ok [9]byte
	ok[0] = dataStatusOK
	binary.BigEndian.PutUint64(ok[1:9], uint64(size))
	if _, err := conn.Write(ok[:]); err != nil {
		return
	}
	paced := s.cfg.Pacer.Writer(req.FlowID, conn)
	if _, err := s.store.readAt(req.FileID, req.Offset, req.Length, paced); err != nil {
		s.logf("dataserver %s: read %s: %v", s.cfg.ID, req.FileID, err)
	}
}

// ReadResponseHeader parses the 9-byte success header or the error reply
// from a bulk read stream (exported for the client package).
func ReadResponseHeader(r io.Reader) (fileSize int64, err error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return 0, err
	}
	switch status[0] {
	case dataStatusOK:
		var sz [8]byte
		if _, err := io.ReadFull(r, sz[:]); err != nil {
			return 0, err
		}
		return int64(binary.BigEndian.Uint64(sz[:])), nil
	case dataStatusErr:
		var ln [2]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return 0, err
		}
		msg := make([]byte, binary.BigEndian.Uint16(ln[:]))
		if _, err := io.ReadFull(r, msg); err != nil {
			return 0, err
		}
		return 0, remoteReadError(string(msg))
	default:
		return 0, fmt.Errorf("dataserver: bad read status %d", status[0])
	}
}

// remoteReadError maps a remote failure string back to this package's
// sentinels where possible.
func remoteReadError(msg string) error {
	switch {
	case strings.Contains(msg, ErrUnknownFile.Error()):
		return fmt.Errorf("%w (remote: %s)", ErrUnknownFile, msg)
	case strings.Contains(msg, ErrOutOfRange.Error()):
		return fmt.Errorf("%w (remote: %s)", ErrOutOfRange, msg)
	default:
		return fmt.Errorf("dataserver: remote read: %s", msg)
	}
}
