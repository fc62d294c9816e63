package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// opTimeout bounds every single operation; no healthy operation of any
// workload comes near it.
const opTimeout = 30 * time.Second

// fastTopo is the scaled testbed with every link raised to 100 Gbps, so
// pacing is negligible and per-request and per-byte CPU costs dominate.
func fastTopo() topology.Config {
	c := testbed.ScaledTestbed()
	fast := topology.Mbps(100_000)
	c.EdgeLinkBps, c.EdgeAggLinkBps, c.AggCoreLinkBps = fast, fast, fast
	return c
}

// tbSpec describes a testbed workload's deployment and inputs.
type tbSpec struct {
	topo      topology.Config
	numFiles  int
	fileBytes int
	// appendFiles is how many empty files the workload's appender owns
	// (0: the workload does not append in its measured phase).
	appendFiles int
	// lambda and jobs parameterise workload.Generate, which supplies the
	// read sequence (file choice by Zipf(1.1), Poisson arrival times).
	lambda float64
	jobs   int
}

// payload fills n bytes from a SplitMix64 stream keyed by (seed, tag, a,
// b): every file and append piece has its own deterministic content.
func payload(n int, seed int64, tag string, a, b int) []byte {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(tag) {
		x = x*31 + uint64(c)
	}
	x ^= uint64(a)<<32 ^ uint64(b)
	out := make([]byte, (n+7)/8*8)
	for i := 0; i < len(out); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out[:n]
}

func fileName(i int) string   { return fmt.Sprintf("perfbench/read-%04d", i) }
func appendName(i int) string { return fmt.Sprintf("perfbench/append-%02d", i) }

const relayProbeName = "perfbench/relay-probe"

// deployment is one booted testbed with its catalog loaded.
type deployment struct {
	spec    tbSpec
	opts    options
	rec     *recorder
	cluster *testbed.Cluster
	workDir string
	reg     *obs.Registry // cluster-wide counters

	payloads [][]byte
	infos    []nameserver.FileInfo
	apInfos  []nameserver.FileInfo
	jobs     []workload.Job

	// pool carries the benchmark's own control calls (the traced run's
	// direct calls into nameserver, flowserver and dataserver).
	pool *rpc.Pool
	ns   *nameserver.Client
	fs   *flowserver.RPCClient
	rng  *rand.Rand // append sequence numbers of direct appends (under mu)

	// loader writes the catalog from one host, so only its first append
	// pays for opening sessions. Appends travel as control RPCs, which
	// the emulated network does not pace, so the host does not matter.
	loader     *client.Client
	loaderHost topology.NodeID
	loaderReg  *obs.Registry
	// fill records the catalog-load appends made through the client.
	fill opLog

	// mu guards rng and probeSize. probe is the benchmark-owned file
	// relay hops are timed on; probeSize its acknowledged length.
	mu        sync.Mutex
	probe     nameserver.FileInfo
	probeSize int64
	closeOnce sync.Once

	setupTime time.Duration
}

// boot starts a cluster, loads the catalog and generates the read trace.
// Its wall time is the workload's set-up time.
func boot(spec tbSpec, opts options, rec *recorder) (*deployment, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(workDirRoot, "testbed-*")
	if err != nil {
		return nil, err
	}
	mode := testbed.ModeMayflower
	if opts.hdfsECMP {
		mode = testbed.ModeHDFSECMP
	}
	reg := obs.NewRegistry()
	cl, err := testbed.NewCluster(testbed.ClusterConfig{
		Mode:    mode,
		Topo:    spec.topo,
		WorkDir: dir,
		Seed:    opts.seed,
		Metrics: reg,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	d := &deployment{
		spec:      spec,
		opts:      opts,
		rec:       rec,
		cluster:   cl,
		workDir:   dir,
		reg:       reg,
		pool:      rpc.NewPool(rpc.Options{}),
		rng:       rand.New(rand.NewSource(opts.seed + 7)),
		loaderReg: obs.NewRegistry(),
	}
	d.ns = nameserver.NewClient(d.pool.Peer(cl.NameserverAddr()))
	if addr := cl.FlowserverAddr(); addr != "" {
		d.fs = flowserver.NewRPCClient(d.pool.Peer(addr))
	}
	if err := d.load(); err != nil {
		d.close()
		return nil, err
	}
	d.setupTime = time.Since(t0)
	return d, nil
}

// newClient builds a workload client on host with its own metrics
// registry, applying the run's dial delay when one is set.
func (d *deployment) newClient(host topology.NodeID, reg *obs.Registry) (*client.Client, error) {
	delay := d.opts.dialDelay
	return d.cluster.NewClient(host, func(o *client.Options) {
		o.Metrics = reg
		if delay > 0 {
			o.DialData = func(ctx context.Context, addr string) (net.Conn, error) {
				// time.Sleep cannot wait less than about a millisecond on
				// some virtualised hosts, so the delay yields until it has
				// passed instead.
				for t0 := time.Now(); time.Since(t0) < delay; {
					runtime.Gosched()
				}
				var dl net.Dialer
				return dl.DialContext(ctx, "tcp", addr)
			}
		}
	})
}

// load creates every catalog file pinned to its catalog replicas and
// fills it, creates the appender's empty files, and generates the trace.
func (d *deployment) load() error {
	rng := rand.New(rand.NewSource(d.opts.seed))
	topo := d.cluster.Topo
	cat, err := workload.NewCatalog(topo, rng, workload.CatalogConfig{
		NumFiles:    d.spec.numFiles,
		SizeBits:    float64(d.spec.fileBytes) * 8,
		Replication: 3,
		Placement:   workload.PlacementPaperEval,
	})
	if err != nil {
		return err
	}
	for _, f := range cat.Files {
		d.payloads = append(d.payloads, payload(d.spec.fileBytes, d.opts.seed, "file", f.Index, 0))
	}
	d.loaderHost = pickHosts(topo, rng, 1, func(topology.Node) bool { return true })[0]
	if d.loader, err = d.newClient(d.loaderHost, d.loaderReg); err != nil {
		return err
	}
	// Direct appends (traced runs) time one relay hop on this file.
	if d.rec != nil {
		reps, err := workload.PlaceReplicas(topo, rng, workload.PlacementPaperEval, 3)
		if err != nil {
			return err
		}
		if d.probe, err = d.create(relayProbeName, reps, 0); err != nil {
			return err
		}
	}
	for i, f := range cat.Files {
		info, err := d.create(fileName(i), f.Replicas, int64(d.spec.fileBytes))
		if err != nil {
			return err
		}
		d.infos = append(d.infos, info)
		if err := d.fillFile(i); err != nil {
			return err
		}
	}
	for i := 0; i < d.spec.appendFiles; i++ {
		reps, err := workload.PlaceReplicas(topo, rng, workload.PlacementPaperEval, 3)
		if err != nil {
			return err
		}
		info, err := d.create(appendName(i), reps, 0)
		if err != nil {
			return err
		}
		d.apInfos = append(d.apInfos, info)
	}
	sp := d.rec.root("workload.Generate")
	d.jobs, err = workload.Generate(topo, rng, cat, workload.TraceConfig{
		LambdaPerServer: d.spec.lambda,
		NumJobs:         d.spec.jobs,
		ZipfSkew:        1.1,
		Locality:        workload.LocalityRackHeavy,
	})
	sp.end()
	return err
}

// create makes a file through the nameserver with its replica set pinned
// to hosts (as the Figure 8 harness does) and prepares it on the
// replicas through the primary: the two calls client.Create makes.
func (d *deployment) create(name string, hosts []topology.NodeID, chunk int64) (nameserver.FileInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	servers := make([]string, len(hosts))
	for j, h := range hosts {
		servers[j] = d.cluster.ServerID(h)
	}
	root := d.rec.root("client.Create")
	sp := root.child("nameserver.Create")
	info, err := d.ns.Create(ctx, name, nameserver.CreateOptions{ChunkSize: chunk, PreferredReplicas: servers})
	sp.end()
	if err != nil {
		return info, fmt.Errorf("create %s: %w", name, err)
	}
	sp = root.child("dataserver.Prepare")
	err = d.ctl(info.Primary()).Prepare(ctx, dataserver.PrepareArgs{Info: info, Relay: true})
	sp.end()
	root.end()
	if err != nil {
		return info, fmt.Errorf("prepare %s: %w", name, err)
	}
	return info, nil
}

// fillFile writes catalog file i through the loader, in appends of at
// most appendPieceBytes. A traced run writes every other file with direct
// calls instead, so the write path's layers are timed on every testbed
// workload.
func (d *deployment) fillFile(i int) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	data := d.payloads[i]
	for off := 0; off < len(data); off += appendPieceBytes {
		piece := data[off:min(off+appendPieceBytes, len(data))]
		var (
			size int64
			err  error
		)
		if d.rec != nil && i%2 == 1 {
			size, err = d.directAppend(ctx, d.host(d.loaderHost), d.infos[i], fileName(i), piece)
		} else {
			sp := d.rec.root("client.Append")
			t0 := time.Now()
			size, err = d.loader.Append(ctx, fileName(i), piece)
			d.fill.add(opRec{kind: opAppend, lat: time.Since(t0), bytes: len(piece), err: err})
			sp.end()
		}
		if want := int64(off + len(piece)); err == nil && size != want {
			err = fmt.Errorf("%w: size %d after fill, want %d", errMismatch, size, want)
		}
		if err != nil {
			return fmt.Errorf("fill %s: %w", fileName(i), err)
		}
	}
	return nil
}

func (d *deployment) ctl(rep nameserver.ReplicaLoc) *dataserver.Client {
	return dataserver.NewClient(d.pool.Peer(rep.ControlAddr))
}

func (d *deployment) host(h topology.NodeID) string { return d.cluster.Topo.Node(h).Name }

// close tears the deployment down and removes its files.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		d.pool.Close()
		d.cluster.Close()
		os.RemoveAll(d.workDir)
	})
}

// pickHosts returns n distinct hosts chosen by rng among those accepted
// by keep.
func pickHosts(topo *topology.Topology, rng *rand.Rand, n int, keep func(topology.Node) bool) []topology.NodeID {
	var cands []topology.NodeID
	for _, h := range topo.Hosts() {
		if keep(topo.Node(h)) {
			cands = append(cands, h)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:n]
}

// checkRead compares a read with its file's payload.
func (d *deployment) checkRead(file int, data []byte) error {
	if !bytes.Equal(data, d.payloads[file]) {
		return fmt.Errorf("%w: %s (%d bytes read, %d expected)", errMismatch, fileName(file), len(data), len(d.payloads[file]))
	}
	return nil
}

// registryCounters sums every counter of reg whose name has the prefix
// and the suffix.
func registryCounters(snap obs.Snapshot, prefix, suffix string) float64 {
	var sum int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return float64(sum)
}
