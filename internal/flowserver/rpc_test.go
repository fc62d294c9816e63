package flowserver

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// serveRPC exposes srv over loopback and returns a stub talking to it and
// a counter of OnAssign hook calls.
func serveRPC(t *testing.T, srv *Server, topo *topology.Topology) (*RPCClient, *atomic.Int64) {
	t.Helper()
	var assigned atomic.Int64
	ws := wire.NewServer()
	hooks := Hooks{OnAssign: func(Assignment) { assigned.Add(1) }}
	if err := RegisterRPC(ws, srv, topo, hooks); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { ws.Close() })
	peer := rpc.NewPeer(ln.Addr().String(), rpc.Options{})
	t.Cleanup(func() { peer.Close() })
	return NewRPCClient(peer), &assigned
}

// TestRPCSelectColocatedReplicaIsLocal: a read whose replica set includes
// the client's own host must come back over the wire as a local
// assignment. Its +Inf estimate once failed JSON encoding, so every
// co-located read degraded to an unscheduled one.
func TestRPCSelectColocatedReplicaIsLocal(t *testing.T) {
	topo := writeTopo(t)
	srv := New(topo, Options{})
	fs, assigned := serveRPC(t, srv, topo)
	name := func(h topology.NodeID) string { return topo.Node(h).Name }
	client := topo.HostAt(0, 0, 0)

	as, err := fs.Select(context.Background(), SelectArgs{
		ClientHost:   name(client),
		ReplicaHosts: []string{name(topo.HostAt(0, 1, 0)), name(client)},
		Bits:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || !as[0].Local || as[0].ReplicaHost != name(client) || as[0].PathLen != 0 {
		t.Fatalf("co-located select = %+v, want one local assignment on %s", as, name(client))
	}
	if as[0].EstimatedBw != 0 {
		t.Errorf("local assignment carries estimate %g on the wire, want 0", as[0].EstimatedBw)
	}
	if n := srv.NumFlows(); n != 0 || assigned.Load() != 0 {
		t.Errorf("local read registered %d flows and ran OnAssign %d times, want none", n, assigned.Load())
	}
}

// TestRPCSelectWriteColocatedTargetReleasesFlows: a replication pipeline
// that includes its own source host returns every hop, so the caller
// learns the non-local flow ids and finishing them empties the model.
// Before the wire fix the reply failed to encode after the hops were
// committed and hooked, leaking them.
func TestRPCSelectWriteColocatedTargetReleasesFlows(t *testing.T) {
	topo := writeTopo(t)
	srv := New(topo, Options{})
	fs, assigned := serveRPC(t, srv, topo)
	name := func(h topology.NodeID) string { return topo.Node(h).Name }
	source := topo.HostAt(0, 0, 0)
	ctx := context.Background()

	as, err := fs.SelectWrite(ctx, SelectWriteArgs{
		SourceHost:  name(source),
		TargetHosts: []string{name(topo.HostAt(0, 1, 0)), name(source), name(topo.HostAt(0, 0, 1))},
		Bits:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 {
		t.Fatalf("got %d assignments, want 3", len(as))
	}
	var local int
	for _, a := range as {
		if a.Local {
			local++
			if a.ReplicaHost != name(source) {
				t.Errorf("local hop targets %s, want the source %s", a.ReplicaHost, name(source))
			}
			continue
		}
		if err := fs.Finished(ctx, a.FlowID); err != nil {
			t.Fatal(err)
		}
	}
	if local != 1 || assigned.Load() != 2 {
		t.Errorf("local hops = %d, OnAssign calls = %d; want 1 and 2", local, assigned.Load())
	}
	if n := srv.NumFlows(); n != 0 {
		t.Errorf("NumFlows = %d after finishing every non-local hop, want 0", n)
	}
}
