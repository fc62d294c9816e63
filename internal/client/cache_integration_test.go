package client

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
)

// newLeasedClient builds a client with a short metadata lease and a
// private metrics registry, so tests can watch which cache path served
// each operation.
func newLeasedClient(t *testing.T, tc *testCluster, host string, ttl time.Duration) (*Client, *obs.Registry) {
	t.Helper()
	return newMeteredClient(t, tc, host, func(o *Options) { o.CacheTTL = ttl })
}

// secondClientHost returns the other reserved (non-dataserver) host.
func secondClientHost(tc *testCluster) string {
	hosts := tc.topo.Hosts()
	return tc.topo.Node(hosts[len(hosts)-2]).Name
}

// TestStaleReadAfterDeleteTwoClients: client B holds a live lease on a
// file that client A deletes. The lease contract allows B to serve the
// cached record until the lease runs out, but no longer: one lease after
// the delete, B must observe ErrNotFound — and must learn it through the
// batched Validate renewal, not a full Lookup.
func TestStaleReadAfterDeleteTwoClients(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	const ttl = 100 * time.Millisecond
	reader, reg := newLeasedClient(t, tc, secondClientHost(tc), ttl)
	ctx := context.Background()

	payload := bytes.Repeat([]byte("mayflower"), 1024)
	if _, err := writer.Create(ctx, "sr/doc", nameserver.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(ctx, "sr/doc", payload); err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadAll(ctx, "sr/doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("prime read returned wrong bytes")
	}

	if err := writer.Delete(ctx, "sr/doc"); err != nil {
		t.Fatal(err)
	}
	lookupsAfterPrime := reg.Counter("client.rpc.method.ns.Lookup.calls").Value()

	// One lease past the delete the reader must see the file gone.
	time.Sleep(ttl + 50*time.Millisecond)
	if _, err := reader.ReadAll(ctx, "sr/doc"); !errors.Is(err, nameserver.ErrNotFound) {
		t.Fatalf("read one lease after delete: err = %v, want ErrNotFound", err)
	}
	if extra := reg.Counter("client.rpc.method.ns.Lookup.calls").Value() - lookupsAfterPrime; extra != 0 {
		t.Errorf("delete discovered via %d full Lookups, want 0 (batched Validate)", extra)
	}
	// The gone verdict is negatively cached: an immediate retry costs no
	// further nameserver round trip of either kind.
	validates := reg.Counter("client.rpc.method.ns.Validate.calls").Value()
	if _, err := reader.ReadAll(ctx, "sr/doc"); !errors.Is(err, nameserver.ErrNotFound) {
		t.Fatalf("second read after delete: err = %v", err)
	}
	if got := reg.Counter("client.rpc.method.ns.Validate.calls").Value(); got != validates {
		t.Errorf("negative entry not cached: %d extra Validate calls", got-validates)
	}
}

// TestLeaseRevalidationAfterReplicaFailover: the nameserver replaces a
// file's primary (what a repair pass does after a dataserver death)
// while a reader holds a live lease on the old replica set. Within one
// lease the reader's metadata must converge on the promoted primary via
// lease revalidation — no error-driven invalidation, no full Lookup.
func TestLeaseRevalidationAfterReplicaFailover(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	const ttl = 100 * time.Millisecond
	reader, reg := newLeasedClient(t, tc, secondClientHost(tc), ttl)
	ctx := context.Background()

	payload := bytes.Repeat([]byte("failover"), 2048)
	if _, err := writer.Create(ctx, "fo/file", nameserver.CreateOptions{Replication: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(ctx, "fo/file", payload); err != nil {
		t.Fatal(err)
	}
	info, err := reader.Stat(ctx, "fo/file")
	if err != nil {
		t.Fatal(err)
	}
	victim := info.Primary().ServerID
	survivor := info.Replicas[1].ServerID

	// Replace the primary on the nameserver, as a repair pass would after
	// declaring it dead: the first survivor is promoted, the newcomer
	// appended.
	var spare nameserver.ServerInfo
	inSet := func(id string) bool {
		for _, r := range info.Replicas {
			if r.ServerID == id {
				return true
			}
		}
		return false
	}
	for _, si := range tc.nsSvc.Servers() {
		if !inSet(si.ID) {
			spare = si
			break
		}
	}
	if spare.ID == "" {
		t.Fatal("no spare dataserver outside the replica set")
	}
	err = tc.nsSvc.ReplaceReplica("fo/file", victim, nameserver.ReplicaLoc{
		ServerID:    spare.ID,
		ControlAddr: spare.ControlAddr,
		DataAddr:    spare.DataAddr,
		Host:        spare.Host,
	})
	if err != nil {
		t.Fatal(err)
	}
	lookupsPrimed := reg.Counter("client.rpc.method.ns.Lookup.calls").Value()

	// One lease later the reader's view must show the promoted primary.
	time.Sleep(ttl + 50*time.Millisecond)
	after, err := reader.Stat(ctx, "fo/file")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Primary().ServerID; got != survivor {
		t.Errorf("post-failover primary = %s, want promoted survivor %s", got, survivor)
	}
	if after.Version <= info.Version {
		t.Errorf("replacement did not bump the record version: %d -> %d", info.Version, after.Version)
	}
	if extra := reg.Counter("client.rpc.method.ns.Lookup.calls").Value() - lookupsPrimed; extra != 0 {
		t.Errorf("failover discovered via %d full Lookups, want 0 (batched Validate)", extra)
	}
	if reg.Counter("client.cache_stale_served").Value() == 0 {
		t.Error("revalidation did not flag the obsoleted record as stale")
	}
	// And the data still reads back through the new replica set.
	got, err := reader.ReadAll(ctx, "fo/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("post-failover read returned wrong bytes")
	}
}
