package dataserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// cluster is three running dataservers plus typed control clients.
type cluster struct {
	servers []*Server
	ctl     []*rpc.Peer
	info    nameserver.FileInfo
}

// startServer brings up one dataserver on ephemeral ports.
func startServer(t *testing.T, id string, pacer Pacer) *Server {
	t.Helper()
	s, err := New(Config{ID: id, Root: t.TempDir(), Host: "host-" + id, Pacer: pacer})
	if err != nil {
		t.Fatal(err)
	}
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctlLn, dataLn, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// startCluster brings up n dataservers and a prepared, replicated file.
func startCluster(t *testing.T, n int, chunkSize int64) *cluster {
	t.Helper()
	c := &cluster{}
	var replicas []nameserver.ReplicaLoc
	for i := 0; i < n; i++ {
		s := startServer(t, fmt.Sprintf("ds-%d", i), nil)
		c.servers = append(c.servers, s)
		replicas = append(replicas, nameserver.ReplicaLoc{
			ServerID:    s.cfg.ID,
			ControlAddr: s.ControlAddr(),
			DataAddr:    s.DataAddr(),
			Host:        s.cfg.Host,
		})
		cc := rpc.NewPeer(s.ControlAddr(), rpc.Options{})
		t.Cleanup(func() { cc.Close() })
		c.ctl = append(c.ctl, cc)
	}
	c.info = nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "cluster-file",
		ChunkSize: chunkSize,
		Replicas:  replicas,
	}
	var out struct{}
	if err := c.ctl[0].Call(context.Background(), MethodPrepare,
		PrepareArgs{Info: c.info, Relay: true}, &out); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrepareRelayReachesAllReplicas(t *testing.T) {
	c := startCluster(t, 3, 64)
	for i, cc := range c.ctl {
		var reply StatReply
		if err := cc.Call(context.Background(), MethodStat, FileIDArgs{FileID: c.info.ID}, &reply); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if reply.SizeBytes != 0 {
			t.Errorf("replica %d size = %d", i, reply.SizeBytes)
		}
	}
}

func TestPrepareRelayRejectsNonPrimary(t *testing.T) {
	c := startCluster(t, 3, 64)
	info := c.info
	info.ID = uuid.MustNew()
	info.Name = "wrong-primary"
	var out struct{}
	err := c.ctl[1].Call(context.Background(), MethodPrepare, PrepareArgs{Info: info, Relay: true}, &out)
	if err == nil || !strings.Contains(err.Error(), "not the file's primary") {
		t.Errorf("err = %v, want not-primary", err)
	}
}

func TestAppendRelaysToReplicas(t *testing.T) {
	c := startCluster(t, 3, 16)
	payload := bytes.Repeat([]byte("ab"), 20) // 40 bytes across 3 chunks

	var reply AppendReply
	err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: payload}, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if reply.SizeBytes != 40 {
		t.Fatalf("size = %d, want 40", reply.SizeBytes)
	}
	// Every replica holds all 40 bytes.
	for i, cc := range c.ctl {
		var st StatReply
		if err := cc.Call(context.Background(), MethodStat, FileIDArgs{FileID: c.info.ID}, &st); err != nil {
			t.Fatal(err)
		}
		if st.SizeBytes != 40 {
			t.Errorf("replica %d size = %d, want 40", i, st.SizeBytes)
		}
	}
}

func TestAppendRejectsNonPrimary(t *testing.T) {
	c := startCluster(t, 3, 16)
	var reply AppendReply
	err := c.ctl[2].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: []byte("x")}, &reply)
	if err == nil || !strings.Contains(err.Error(), "not the file's primary") {
		t.Errorf("err = %v, want not-primary", err)
	}
}

func TestAppendTooLarge(t *testing.T) {
	c := startCluster(t, 1, 1<<20)
	var reply AppendReply
	err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: make([]byte, MaxAppend+1)}, &reply)
	if err == nil {
		t.Error("oversized append accepted")
	}
}

func TestAppendFailsWhenReplicaDown(t *testing.T) {
	c := startCluster(t, 3, 16)
	// Kill a secondary replica; the primary's relay must fail loudly
	// rather than silently under-replicate.
	if err := c.servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	var reply AppendReply
	err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: []byte("x")}, &reply)
	if err == nil {
		t.Error("append succeeded with a dead replica")
	}
}

func TestConcurrentAppendsThroughPrimary(t *testing.T) {
	c := startCluster(t, 3, 256)
	var wg sync.WaitGroup
	const writers = 6
	const perWriter = 10
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := rpc.NewPeer(c.servers[0].ControlAddr(), rpc.Options{})
			defer cc.Close()
			for i := 0; i < perWriter; i++ {
				var reply AppendReply
				if err := cc.Call(context.Background(), MethodAppend,
					AppendArgs{FileID: c.info.ID, Data: []byte("0123456789")}, &reply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(writers * perWriter * 10)
	for i, cc := range c.ctl {
		var st StatReply
		if err := cc.Call(context.Background(), MethodStat, FileIDArgs{FileID: c.info.ID}, &st); err != nil {
			t.Fatal(err)
		}
		if st.SizeBytes != want {
			t.Errorf("replica %d size = %d, want %d", i, st.SizeBytes, want)
		}
	}
	// No torn appends on any replica.
	for i := range c.servers {
		data := readAll(t, c.servers[i], c.info.ID, 0, want)
		for off := int64(0); off+10 <= int64(len(data)); off += 10 {
			if string(data[off:off+10]) != "0123456789" {
				t.Fatalf("replica %d interleaved append at %d", i, off)
			}
		}
	}
}

// readAll fetches a byte range through the bulk data protocol.
func readAll(t *testing.T, s *Server, id uuid.UUID, offset, length int64) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", s.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := EncodeReadRequest(ReadRequest{FlowID: 1, FileID: id, Offset: offset, Length: length})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponseHeader(conn); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(conn, data); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDataProtocolRoundTrip(t *testing.T) {
	c := startCluster(t, 2, 32)
	payload := bytes.Repeat([]byte("xyz"), 30) // 90 bytes
	var reply AppendReply
	if err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: payload}, &reply); err != nil {
		t.Fatal(err)
	}

	// Read the full range from the secondary replica.
	got := readAll(t, c.servers[1], c.info.ID, 0, 90)
	if !bytes.Equal(got, payload) {
		t.Error("data protocol returned wrong bytes")
	}
	// Ranged read.
	got = readAll(t, c.servers[0], c.info.ID, 30, 45)
	if !bytes.Equal(got, payload[30:75]) {
		t.Error("ranged read returned wrong bytes")
	}
}

func TestDataProtocolReportsSize(t *testing.T) {
	c := startCluster(t, 1, 32)
	if err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: bytes.Repeat([]byte("q"), 77)}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.servers[0].DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := EncodeReadRequest(ReadRequest{FileID: c.info.ID, Offset: 0, Length: 10})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	size, err := ReadResponseHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if size != 77 {
		t.Errorf("reported size = %d, want 77", size)
	}
}

func TestDataProtocolErrors(t *testing.T) {
	c := startCluster(t, 1, 32)

	read := func(id uuid.UUID, off, length int64) error {
		conn, err := net.Dial("tcp", c.servers[0].DataAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(EncodeReadRequest(ReadRequest{FileID: id, Offset: off, Length: length})); err != nil {
			t.Fatal(err)
		}
		_, err = ReadResponseHeader(conn)
		return err
	}

	if err := read(uuid.MustNew(), 0, 1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("unknown file err = %v", err)
	}
	if err := read(c.info.ID, 0, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("over-read err = %v", err)
	}
}

func TestRegistersWithNameserver(t *testing.T) {
	// Bring up a real nameserver.
	nsStore := newNSStore(t)
	svc, err := nameserver.NewService(nsStore, testRand())
	if err != nil {
		t.Fatal(err)
	}
	nsSrv := wire.NewServer()
	if err := nameserver.RegisterRPC(nsSrv, svc); err != nil {
		t.Fatal(err)
	}
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nsSrv.Serve(nsLn)
	t.Cleanup(func() { nsSrv.Close() })

	s, err := New(Config{ID: "reg-ds", Root: t.TempDir(), Host: "h", Pod: 1, Rack: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctlLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dataLn, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s.Start(ctlLn, dataLn, nsLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	servers := svc.Servers()
	if len(servers) != 1 || servers[0].ID != "reg-ds" || servers[0].Pod != 1 || servers[0].Rack != 2 {
		t.Errorf("registered servers = %+v", servers)
	}
	if servers[0].ControlAddr != s.ControlAddr() || servers[0].DataAddr != s.DataAddr() {
		t.Error("registered addresses do not match server addresses")
	}
}

func TestListFilesRPC(t *testing.T) {
	c := startCluster(t, 1, 32)
	var recs []nameserver.FileRecord
	if err := c.ctl[0].Call(context.Background(), MethodListFiles, struct{}{}, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Info.ID != c.info.ID {
		t.Errorf("ListFiles = %+v", recs)
	}
}

func TestDeleteRPC(t *testing.T) {
	c := startCluster(t, 1, 32)
	var out struct{}
	if err := c.ctl[0].Call(context.Background(), MethodDelete, FileIDArgs{FileID: c.info.ID}, &out); err != nil {
		t.Fatal(err)
	}
	var st StatReply
	err := c.ctl[0].Call(context.Background(), MethodStat, FileIDArgs{FileID: c.info.ID}, &st)
	if err == nil {
		t.Error("stat succeeded after delete")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Root: t.TempDir()}); err == nil {
		t.Error("missing ID accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := startServer(t, "close-ds", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// slowPacer throttles to verify the pacer hook is honoured.
type slowPacer struct {
	delay time.Duration
}

type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (p *slowPacer) Writer(_ uint64, w io.Writer) io.Writer {
	return &slowWriter{w: w, delay: p.delay}
}

func (sw *slowWriter) Write(b []byte) (int, error) {
	time.Sleep(sw.delay)
	return sw.w.Write(b)
}

func TestPacerIsApplied(t *testing.T) {
	s := startServer(t, "paced-ds", &slowPacer{delay: 30 * time.Millisecond})
	info := nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "paced",
		ChunkSize: 1 << 20,
		Replicas:  []nameserver.ReplicaLoc{{ServerID: "paced-ds"}},
	}
	cc := rpc.NewPeer(s.ControlAddr(), rpc.Options{})
	defer cc.Close()
	var out struct{}
	if err := cc.Call(context.Background(), MethodPrepare, PrepareArgs{Info: info}, &out); err != nil {
		t.Fatal(err)
	}
	if err := cc.Call(context.Background(), MethodAppend,
		AppendArgs{FileID: info.ID, Data: []byte("0123456789")}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got := readAll(t, s, info.ID, 0, 10)
	if string(got) != "0123456789" {
		t.Fatalf("read = %q", got)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("read completed in %v; pacer not applied", elapsed)
	}
}

// TestDataProtocolReadToEnd: a ReadToEnd request streams exactly
// [offset, size) and then closes; offset == size is an empty success;
// any other negative length and any offset past the end are rejected.
func TestDataProtocolReadToEnd(t *testing.T) {
	c := startCluster(t, 2, 32)
	payload := bytes.Repeat([]byte("abcdefg"), 11) // 77 bytes, three chunks
	if err := c.ctl[0].Call(context.Background(), MethodAppend,
		AppendArgs{FileID: c.info.ID, Data: payload}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}

	read := func(s *Server, off, length int64) (int64, []byte, error) {
		conn, err := net.Dial("tcp", s.DataAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(EncodeReadRequest(ReadRequest{FileID: c.info.ID, Offset: off, Length: length})); err != nil {
			t.Fatal(err)
		}
		size, err := ReadResponseHeader(conn)
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(conn)
		return size, body, err
	}

	for _, s := range c.servers {
		for _, off := range []int64{0, 5, 32, 76, 77} {
			size, body, err := read(s, off, ReadToEnd)
			if err != nil {
				t.Fatalf("%s: to-end read at %d: %v", s.cfg.ID, off, err)
			}
			if size != 77 || int64(len(body)) != size-off || !bytes.Equal(body, payload[off:]) {
				t.Errorf("%s: to-end read at %d = size %d, %d bytes; want size 77, %d bytes of the payload",
					s.cfg.ID, off, size, len(body), 77-off)
			}
		}
	}
	for _, tc := range []struct{ off, length int64 }{
		{78, ReadToEnd}, {-1, ReadToEnd}, {0, -2}, {0, -77}, {5, -1 << 62},
	} {
		if _, _, err := read(c.servers[0], tc.off, tc.length); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read offset %d length %d: err = %v, want ErrOutOfRange", tc.off, tc.length, err)
		}
	}
}
