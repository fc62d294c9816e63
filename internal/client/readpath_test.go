package client

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
)

// newMeteredClient builds a client with a private metrics registry, so a
// test can count the RPCs each operation makes.
func newMeteredClient(t *testing.T, tc *testCluster, host string, mutate func(*Options)) (*Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := Options{
		NameserverAddr: tc.nsAddr,
		FlowserverAddr: tc.fsAddr,
		Host:           host,
		Rand:           rand.New(rand.NewSource(5)),
		Metrics:        reg,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

// rpcCalls snapshots the per-method call counters a read can touch.
func rpcCalls(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range []string{"ds.Stat", "fs.Select", "fs.Finished", "ns.Lookup", "ns.Validate"} {
		out[m] = reg.Counter("client.rpc.method." + m + ".calls").Value()
	}
	return out
}

// callsSince returns how many calls of each method were made since
// before was taken.
func callsSince(reg *obs.Registry, before map[string]int64) map[string]int64 {
	out := rpcCalls(reg)
	for m := range out {
		out[m] -= before[m]
	}
	return out
}

// TestReadAllOneControlRoundTripPair: with the metadata cached, a
// ReadAll makes one fs.Select and one fs.Finished around its bulk
// stream, and no ds.Stat or nameserver call.
func TestReadAllOneControlRoundTripPair(t *testing.T) {
	tc := defaultCluster(t)
	c, reg := newMeteredClient(t, tc, clientHost(tc), nil)
	ctx := context.Background()
	if _, err := c.Create(ctx, "cost", nameserver.CreateOptions{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789"), 20)
	if _, err := c.Append(ctx, "cost", payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		before := rpcCalls(reg)
		got, err := c.ReadAll(ctx, "cost")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d returned %d bytes, want the %d-byte payload", i, len(got), len(payload))
		}
		want := map[string]int64{"ds.Stat": 0, "fs.Select": 1, "fs.Finished": 1, "ns.Lookup": 0, "ns.Validate": 0}
		if calls := callsSince(reg, before); !maps.Equal(calls, want) {
			t.Errorf("read %d made calls %v, want %v", i, calls, want)
		}
	}
	if n := tc.fsSrv.NumFlows(); n != 0 {
		t.Errorf("flowserver still tracks %d flows after the reads", n)
	}
}

// TestReadAllColocatedSkipsFinished: a client on one of the file's
// replica hosts gets a local assignment (over the wire, not a degraded
// fallback) and, since nothing was registered, reports no flow finished.
func TestReadAllColocatedSkipsFinished(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()
	info, err := writer.Create(ctx, "local", nameserver.CreateOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("local"), 30)
	if _, err := writer.Append(ctx, "local", payload); err != nil {
		t.Fatal(err)
	}
	c, reg := newMeteredClient(t, tc, info.Replicas[1].Host, nil)
	got, err := c.ReadAll(ctx, "local")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("co-located read returned wrong bytes")
	}
	calls := rpcCalls(reg)
	if calls["fs.Select"] != 1 || calls["fs.Finished"] != 0 {
		t.Errorf("co-located read made %d fs.Select and %d fs.Finished calls, want 1 and 0",
			calls["fs.Select"], calls["fs.Finished"])
	}
	if d := reg.Counter("client.reads_degraded").Value(); d != 0 {
		t.Errorf("co-located read ran degraded %d times, want 0", d)
	}
}

// TestReadAllStaleCachedSizeEveryMode: after another client appends, a
// reader holding the old size in its cache still gets the longer file
// from ReadAll, without a ds.Stat probe, in every read mode.
func TestReadAllStaleCachedSizeEveryMode(t *testing.T) {
	pickLast := func(info nameserver.FileInfo) nameserver.ReplicaLoc {
		return info.Replicas[len(info.Replicas)-1]
	}
	modes := []struct {
		name   string
		mutate func(*Options)
	}{
		{"sequential", nil},
		{"strong", func(o *Options) { o.Consistency = Strong }},
		{"no-flowserver", func(o *Options) { o.FlowserverAddr = "" }},
		{"pick-replica", func(o *Options) { o.PickReplica = pickLast }},
		{"pick-replica-no-flowserver", func(o *Options) { o.FlowserverAddr = ""; o.PickReplica = pickLast }},
	}
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			name := "stale-" + m.name
			if _, err := writer.Create(ctx, name, nameserver.CreateOptions{ChunkSize: 8}); err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Append(ctx, name, []byte("first")); err != nil {
				t.Fatal(err)
			}
			reader, reg := newMeteredClient(t, tc, secondClientHost(tc), m.mutate)
			if got, err := reader.ReadAll(ctx, name); err != nil || string(got) != "first" {
				t.Fatalf("first ReadAll = %q, %v", got, err)
			}
			if _, err := writer.Append(ctx, name, []byte(" second, across chunks")); err != nil {
				t.Fatal(err)
			}
			before := rpcCalls(reg)
			got, err := reader.ReadAll(ctx, name)
			if err != nil || string(got) != "first second, across chunks" {
				t.Fatalf("ReadAll with a stale cached size = %q, %v", got, err)
			}
			if calls := callsSince(reg, before); calls["ds.Stat"] != 0 || calls["ns.Lookup"] != 0 {
				t.Errorf("ReadAll made %d ds.Stat and %d ns.Lookup calls, want none", calls["ds.Stat"], calls["ns.Lookup"])
			}
		})
	}
	if n := tc.fsSrv.NumFlows(); n != 0 {
		t.Errorf("flowserver still tracks %d flows after the reads", n)
	}
}
