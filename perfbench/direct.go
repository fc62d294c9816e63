package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// This file is the traced run's view into the layers: a read and an
// append made by calling each layer's public functions directly, in the
// order client.Client makes them, with a span around every call. The
// spans split the operation's time into metadata lookup, replica/path
// selection, bulk dial, first byte, body transfer and the replication
// relay; the untraced client path gives the whole they must add up to.

var errMismatch = errors.New("output mismatch")

// metaCache is one client host's metadata, filled on first touch as the
// client's lease cache is: the first read of a file pays a nameserver
// Lookup, later reads reuse the record.
type metaCache struct {
	mu sync.Mutex
	m  map[string]nameserver.FileInfo
}

// metaCaches holds a metaCache per client host.
type metaCaches struct {
	mu sync.Mutex
	m  map[topology.NodeID]*metaCache
}

func newMetaCaches() *metaCaches { return &metaCaches{m: make(map[topology.NodeID]*metaCache)} }

func (c *metaCaches) of(host topology.NodeID) *metaCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	mc := c.m[host]
	if mc == nil {
		mc = &metaCache{m: make(map[string]nameserver.FileInfo)}
		c.m[host] = mc
	}
	return mc
}

func (d *deployment) lookup(ctx context.Context, root *open, mc *metaCache, name string) (nameserver.FileInfo, error) {
	mc.mu.Lock()
	info, ok := mc.m[name]
	mc.mu.Unlock()
	if ok {
		return info, nil
	}
	sp := root.child("nameserver.Lookup")
	info, err := d.ns.Lookup(ctx, name)
	sp.end()
	if err != nil {
		return info, fmt.Errorf("lookup %s: %w", name, err)
	}
	mc.mu.Lock()
	mc.m[name] = info
	mc.mu.Unlock()
	return info, nil
}

// directRead reads catalog file i for clientHost: the primary's size,
// the Flowserver's choice of replica and path, then the bulk transfer
// from the chosen replica, and the flow's release.
func (d *deployment) directRead(ctx context.Context, root *open, clientHost string, mc *metaCache, file int) error {
	name := fileName(file)
	info, err := d.lookup(ctx, root, mc, name)
	if err != nil {
		return err
	}
	sp := root.child("dataserver.Stat")
	st, err := d.ctl(info.Primary()).Stat(ctx, info.ID)
	sp.end()
	if err != nil {
		return fmt.Errorf("stat %s: %w", name, err)
	}
	hosts := make([]string, len(info.Replicas))
	for i, r := range info.Replicas {
		hosts[i] = r.Host
	}
	sp = root.child("flowserver.Select")
	as, err := d.fs.Select(ctx, flowserver.SelectArgs{ClientHost: clientHost, ReplicaHosts: hosts, Bits: float64(st.SizeBytes) * 8})
	sp.end()
	buf := make([]byte, st.SizeBytes)
	if err != nil || len(as) == 0 {
		// The client degrades a failed selection to an unscheduled read
		// in locality order; so does this path, from the co-located
		// replica when there is one, else the primary.
		rep := info.Primary()
		for _, r := range info.Replicas {
			if r.Host == clientHost {
				rep = r
			}
		}
		if err := d.fetch(ctx, root, rep, 0, info, buf); err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		return d.checkRead(file, buf)
	}
	var rep *nameserver.ReplicaLoc
	for i := range info.Replicas {
		if info.Replicas[i].Host == as[0].ReplicaHost {
			rep = &info.Replicas[i]
		}
	}
	if rep == nil {
		return fmt.Errorf("select %s: unknown replica host %q", name, as[0].ReplicaHost)
	}
	ferr := d.fetch(ctx, root, *rep, uint64(as[0].FlowID), info, buf)
	sp = root.child("flowserver.Finished")
	err = d.fs.Finished(ctx, as[0].FlowID)
	sp.end()
	if ferr != nil {
		return fmt.Errorf("read %s: %w", name, ferr)
	}
	if err != nil {
		return fmt.Errorf("finish flow of %s: %w", name, err)
	}
	return d.checkRead(file, buf)
}

// fetch moves buf's bytes over a fresh bulk connection to rep, tagged
// with the scheduled flow so the dataserver paces it.
func (d *deployment) fetch(ctx context.Context, root *open, rep nameserver.ReplicaLoc, flowID uint64, info nameserver.FileInfo, buf []byte) error {
	sp := root.child("dataserver.Dial")
	var dl net.Dialer
	conn, err := dl.DialContext(ctx, "tcp", rep.DataAddr)
	sp.end()
	if err != nil {
		return err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	sp = root.child("dataserver.FirstByte")
	_, err = conn.Write(dataserver.EncodeReadRequest(dataserver.ReadRequest{
		FlowID: flowID, FileID: info.ID, Offset: 0, Length: int64(len(buf)),
	}))
	if err == nil {
		_, err = dataserver.ReadResponseHeader(conn)
	}
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("dataserver.Body")
	_, err = io.ReadFull(conn, buf)
	sp.end()
	return err
}

// directAppend appends data to a file for clientHost: the ingest flow's
// registration, the append through the primary (which relays to the
// other replicas), and the flow's release. It returns the file size the
// primary acknowledged. Two probes follow outside the append's own span:
// the replication pipeline selection the primary makes internally, and
// one relay hop to a benchmark-owned file.
func (d *deployment) directAppend(ctx context.Context, clientHost string, info nameserver.FileInfo, name string, data []byte) (int64, error) {
	bits := float64(len(data)) * 8
	root := d.rec.root("append")
	var flow flowserver.FlowID
	active := false
	sp := root.child("flowserver.Select")
	as, err := d.fs.Select(ctx, flowserver.SelectArgs{ClientHost: info.Primary().Host, ReplicaHosts: []string{clientHost}, Bits: bits})
	sp.end()
	// As in the client, a failed registration leaves the write
	// unscheduled rather than failing it.
	if err == nil && len(as) > 0 && !as[0].Local {
		flow, active = as[0].FlowID, true
	}
	sp = root.child("dataserver.Append")
	reply, err := d.ctl(info.Primary()).Append(ctx, dataserver.AppendArgs{FileID: info.ID, Name: name, Data: data, Seq: d.seq()})
	sp.end()
	if active {
		sp = root.child("flowserver.Finished")
		ferr := d.fs.Finished(ctx, flow)
		sp.end()
		if err == nil && ferr != nil {
			err = fmt.Errorf("finish ingest flow: %w", ferr)
		}
	}
	root.end()
	if err != nil {
		return 0, err
	}
	if err := d.probeSelectWrite(ctx, info, bits); err != nil {
		return 0, err
	}
	if err := d.probeRelayHop(ctx, data); err != nil {
		return 0, err
	}
	return reply.SizeBytes, nil
}

// seq draws an odd, hence nonzero, append sequence number.
func (d *deployment) seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(d.rng.Int63())<<1 | 1
}

// probeSelectWrite asks the Flowserver for the replication pipeline the
// primary would request for this append, then releases its flows.
func (d *deployment) probeSelectWrite(ctx context.Context, info nameserver.FileInfo, bits float64) error {
	targets := make([]string, 0, len(info.Replicas)-1)
	for _, r := range info.Replicas[1:] {
		targets = append(targets, r.Host)
	}
	root := d.rec.root("pipeline")
	sp := root.child("flowserver.SelectWrite")
	as, err := d.fs.SelectWrite(ctx, flowserver.SelectWriteArgs{SourceHost: info.Primary().Host, TargetHosts: targets, Bits: bits})
	sp.end()
	for _, a := range as {
		if a.Local {
			continue
		}
		sp = root.child("flowserver.Finished")
		if ferr := d.fs.Finished(ctx, a.FlowID); ferr != nil && err == nil {
			err = ferr
		}
		sp.end()
	}
	root.end()
	if err != nil {
		return fmt.Errorf("select write pipeline: %w", err)
	}
	return nil
}

// probeRelayHop applies data to one replica of the benchmark-owned probe
// file at that replica's current end: one hop of a replication relay.
func (d *deployment) probeRelayHop(ctx context.Context, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	root := d.rec.root("relay")
	sp := root.child("dataserver.AppendAt")
	reply, err := d.ctl(d.probe.Replicas[1]).AppendAt(ctx, dataserver.AppendAtArgs{FileID: d.probe.ID, Offset: d.probeSize, Data: data})
	sp.end()
	root.end()
	if err != nil {
		return fmt.Errorf("relay hop: %w", err)
	}
	if want := d.probeSize + int64(len(data)); reply.SizeBytes != want {
		return fmt.Errorf("%w: relay hop left size %d, want %d", errMismatch, reply.SizeBytes, want)
	}
	d.probeSize = reply.SizeBytes
	return nil
}

// checkProbe confirms the probe replica holds every relayed byte.
func (d *deployment) checkProbe(ctx context.Context) error {
	st, err := d.ctl(d.probe.Replicas[1]).Stat(ctx, d.probe.ID)
	if err != nil {
		return fmt.Errorf("stat relay probe: %w", err)
	}
	if st.SizeBytes != d.probeSize {
		return fmt.Errorf("%w: relay probe holds %d bytes, want %d", errMismatch, st.SizeBytes, d.probeSize)
	}
	return nil
}
