package client

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// appendPattern produces deterministic content so a reader can verify
// that any prefix it observes is exactly the written prefix (no torn or
// reordered appends).
func appendPattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + (i/7+i)%23)
	}
	return out
}

// prefixWorkload sizes one run of checkPrefixReads.
type prefixWorkload struct {
	chunkSize   int64
	replication int
	appendSize  int
	appends     int
	reads       int
}

// checkPrefixReads runs a writer appending continuously while reader
// samples the file with ReadAll. ReadAll reads to the replica's end of
// file, so every read must return exactly the pattern prefix of some
// whole number of appends (no torn or reordered appends), and a read
// after the last acked append must return all of it.
func checkPrefixReads(t *testing.T, writer, reader *Client, name string, w prefixWorkload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := writer.Create(ctx, name, nameserver.CreateOptions{ChunkSize: w.chunkSize, Replication: w.replication}); err != nil {
		t.Fatal(err)
	}
	full := appendPattern(w.appendSize * w.appends)
	writeErr := make(chan error, 1)
	go func() {
		for i := 0; i < w.appends; i++ {
			if _, err := writer.Append(ctx, name, full[i*w.appendSize:(i+1)*w.appendSize]); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	for i := 0; i < w.reads; i++ {
		got, err := reader.ReadAll(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got)%w.appendSize != 0 {
			t.Fatalf("read %d bytes: torn append visible", len(got))
		}
		if !bytes.Equal(got, full[:len(got)]) {
			t.Fatalf("read of %d bytes is not the written prefix", len(got))
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadAll(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("final read returned %d bytes, want all %d appended", len(got), len(full))
	}
}

// TestStrongReadsSeePrefixesUnderConcurrentAppends: strong-consistency
// readers take the body from any replica and the tail, to its end, from
// the primary (§3.4's sequential ordering through the primary).
func TestStrongReadsSeePrefixesUnderConcurrentAppends(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	reader := newClient(t, tc, secondClientHost(tc), true, Strong)
	// Appends regularly cross chunk boundaries.
	checkPrefixReads(t, writer, reader, "prefix", prefixWorkload{chunkSize: 150, appendSize: 64, appends: 40, reads: 30})
}

// TestSequentialReadsAlsoPrefixConsistent repeats the check in the
// default consistency mode: relayed appends apply in primary order at
// every replica and each replica's size only moves by whole pieces, so
// a to-end read from any replica is a clean prefix.
func TestSequentialReadsAlsoPrefixConsistent(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	reader := newClient(t, tc, clientHost(tc), false, Sequential)
	checkPrefixReads(t, writer, reader, "seq", prefixWorkload{chunkSize: 100, appendSize: 16, appends: 40, reads: 20})
}

// TestSplitReadsPrefixConsistentUnderConcurrentAppends: a §4.3 split
// read takes fixed ranges sized by the cached (possibly stale) size and
// reads its last segment to the end, so the joined result is still a
// clean prefix.
func TestSplitReadsPrefixConsistentUnderConcurrentAppends(t *testing.T) {
	tc, topo, fsMet := splitCluster(t)
	writer := newClient(t, tc, topo.Node(topo.HostAt(0, 0, 1)).Name, true, Sequential)
	reader := newClient(t, tc, topo.Node(topo.HostAt(0, 0, 0)).Name, true, Sequential)
	checkPrefixReads(t, writer, reader, "split-prefix", prefixWorkload{chunkSize: 1000, replication: 2, appendSize: 96, appends: 40, reads: 30})
	if n := fsMet.Counter("flowserver.multi_accepts").Value(); n == 0 {
		t.Error("no read was split across both replicas")
	}
}

// splitCluster boots the §4.3 setting: client pod 0, replicas in pods 1
// and 2 behind disjoint 10 Mbps uplinks while the client's downlink is
// 100 Mbps, so the Flowserver splits reads across both replicas. The
// registry holds the Flowserver's counters.
func splitCluster(t *testing.T) (*testCluster, *topology.Topology, *obs.Registry) {
	t.Helper()
	cfg := topology.Config{
		Pods: 3, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: topology.Mbps(100), EdgeAggLinkBps: topology.Mbps(10),
		AggCoreLinkBps: topology.Mbps(10),
	}
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsHosts := []topology.NodeID{topo.HostAt(1, 0, 0), topo.HostAt(2, 0, 0)}
	reg := obs.NewRegistry()
	return startCluster(t, cfg, dsHosts, flowserver.Options{MultiReplica: true, Metrics: reg}), topo, reg
}
