package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

const (
	// setupRounds is how many times an untraced run boots its
	// deployment; set-up metrics are medians over the rounds, and the
	// last deployment is the one measured.
	setupRounds = 5
	// closedWorkers is a closed loop's concurrency: one load generator
	// per CPU of the 2-core reference host.
	closedWorkers = 2
	// window is the length of the slices a closed loop's measured phase
	// is cut into; its metrics are medians over the slices, so a short
	// stall of the shared host moves one slice, not the result.
	window = time.Second
	// appendPieceBytes is the largest append any workload makes: bulk-rw
	// appends pieces of this size, and catalogs are written in them.
	appendPieceBytes = 64 << 10
	// pacedRate is paced-zipf's total arrival rate in reads per second:
	// enough that its read phase (15 s of a 20 s run) holds over 1000
	// reads, ten beyond the p99 it reports.
	pacedRate = 70
	// appendPhaseShare is the share of each untraced round that a
	// workload which only reads in its measured phase spends appending
	// first (see tbWorkload.appendPhase), and appendPhaseFiles how many
	// files it appends to.
	appendPhaseShare = 1.0 / 4
	appendPhaseFiles = 4
	// readTail and appendTail are the tail percentiles reported for
	// reads and appends (see endToEnd).
	readTail   = 99
	appendTail = 90
)

// tbWorkload is a testbed workload: its deployment and how it offers
// load.
type tbWorkload struct {
	spec func(opts options) tbSpec
	// pinned, when set, fixes a reading and an appending host (worker 0
	// reads, worker 1 appends). Otherwise every read is issued by a
	// client on the host workload.Generate placed its job on, by the
	// paper's staggered locality relative to the file's primary.
	pinned func(topo *topology.Topology, rng *rand.Rand) (reader, appender topology.NodeID)
	open   bool
	// appendPhase gives a workload that only reads its append metrics:
	// each untraced round first runs bulk-rw's appender alone (one
	// client appending appendPieceBytes pieces round-robin to
	// appendPhaseFiles own files) for appendPhaseShare of the round, then
	// the reads for the rest. The catalog load is not used for this: its
	// appends create every chunk and checksum file, so their time is set
	// by the host file system's create path, which moves by up to 3x
	// between runs minutes apart on a shared disk.
	appendPhase bool
}

func init() {
	register(&plan{
		name: "small-read",
		header: header{
			minimises: "per-read latency of 4 KiB whole-file reads (read_p50_ms, read_p99_ms); maximises read_ops_s",
			loads:     "client metadata cache, rpc/wire JSON control calls (ds.Stat, fs.Select, fs.Finished), nameserver on misses, flowserver selection, one fresh bulk TCP dial per read",
			bypasses:  "link pacing (every link 100 Gbps), the write path in the read phase, the simulator",
			loop:      "closed loop, 2 workers; each read of Zipf(1.1) over 256 files x 4 KiB x 3 replicas comes from a client on its job's host (rack-heavy staggered locality), ModeMayflower; " + appendPhaseLoop,
			why:       "per-request control-plane and dial cost dominates: each read moves almost no body",
		},
		run: tbWorkload{
			spec: func(opts options) tbSpec {
				return tbSpec{topo: fastTopo(), numFiles: 256, fileBytes: 4 << 10, lambda: 1, jobs: 8192}
			},
			appendPhase: true,
		}.run,
	})
	register(&plan{
		name: "bulk-rw",
		header: header{
			minimises: "append_p50_ms and read time per byte; maximises append_mib_s and read_mib_s while both run",
			loads:     "append path (JSON/base64 payload at every hop, flow-scheduled relay to 2 replicas), binary bulk read stream",
			bypasses:  "link pacing (every link 100 Gbps), the simulator",
			loop:      "closed loop, 2 workers on fixed hosts in different pods: one appends 64 KiB pieces round-robin to 4 own 3-replica files, one reads 1 MiB files (8 files, Zipf(1.1)) end to end",
			why:       "per-byte cost dominates; running both at once shows a change that speeds one path by taking CPU from the other",
		},
		run: tbWorkload{
			spec: func(opts options) tbSpec {
				return tbSpec{topo: fastTopo(), numFiles: 8, fileBytes: 1 << 20, appendFiles: 4, lambda: 1, jobs: 8192}
			},
			pinned: func(topo *topology.Topology, rng *rand.Rand) (topology.NodeID, topology.NodeID) {
				a := pickHosts(topo, rng, 1, func(n topology.Node) bool { return n.Pod == 0 })
				b := pickHosts(topo, rng, 1, func(n topology.Node) bool { return n.Pod == 1 })
				return a[0], b[0]
			},
		}.run,
	})
	register(&plan{
		name: "paced-zipf",
		header: header{
			minimises: "read completion time under contention (read_mean_ms is the paper's headline metric; read_p99_ms its tail)",
			loads:     "flowserver joint replica/path selection and stats polling, emulated link pacing (64 Mbps edge, 16 Mbps agg-core)",
			bypasses:  "CPU-bound per-byte cost (pacing sets the body time), the simulator",
			loop: fmt.Sprintf("open loop, Poisson arrivals at %d reads/s total, Zipf(1.1) over 40 files x 256 KiB placed by PlacementPaperEval, "+
				"each read from a client on its job's host (rack-heavy staggered locality), timed from its due time, ModeMayflower on the scaled testbed; %s", pacedRate, appendPhaseLoop),
			why: "the paper's setting: completion time depends on which replica and path the Flowserver picks, not on CPU",
		},
		run: tbWorkload{
			spec: func(opts options) tbSpec {
				n := int(math.Ceil(pacedRate*opts.seconds)) + 1
				return tbSpec{topo: testbed.ScaledTestbed(), numFiles: 40, fileBytes: 256 << 10,
					lambda: pacedRate / 16.0, jobs: n}
			},
			open:        true,
			appendPhase: true,
		}.run,
	})
}

// appendPhaseLoop is the header's account of tbWorkload.appendPhase.
var appendPhaseLoop = fmt.Sprintf("append metrics from a closed loop of 1 appender alone for the first %.0f%% of each round, "+
	"%d KiB pieces round-robin to %d own 3-replica files (appends are control RPCs, never paced)", appendPhaseShare*100, appendPieceBytes>>10, appendPhaseFiles)

// hostClient is a workload client and the registry it publishes into.
type hostClient struct {
	cl  *client.Client
	reg *obs.Registry
}

// phaseLog is one untraced phase of a round: its operations, its
// length and the steal meter's readings over it.
type phaseLog struct {
	recs    []opRec
	elapsed time.Duration
	ticks   []cpuTicks
}

// roundStats is what the end-to-end metrics need from one round.
type roundStats struct {
	setup      time.Duration
	setupSteal float64
	reads      phaseLog
	appends    phaseLog // the append phase (appendPhase only)
}

// tbRun is one measured round against a booted deployment.
type tbRun struct {
	d                *deployment
	w                tbWorkload
	reader, appender topology.NodeID // pinned hosts (bulk-rw)
	log              opLog
	gen              genStats
	phaseStart       time.Time
	recs             []opRec // every operation, once the round ends
	setupSteal       float64 // steal share during boot
	reads, appends   phaseLog

	mu      sync.Mutex
	clients map[topology.NodeID]*hostClient // reading clients, by host
	apc     *hostClient                     // the appending client

	// The appender's state (one goroutine appends; the rest read after
	// the loop ends): the next piece id, and per file the pieces acked in
	// order and the acknowledged size.
	nextPiece int
	apPieces  [][]int
	apSizes   []int64
}

// roundSeed is the seed of a run's i-th deployment: the run's own seed
// first, then seeds derived from it. Spreading a run over several
// catalogs keeps one unlucky placement of the hottest files from setting
// the whole run's numbers.
func roundSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return testutil.DeriveSeed(seed, uint64(i))
}

func (w tbWorkload) run(opts options, rec *recorder) (*outcome, error) {
	if rec != nil && opts.hdfsECMP {
		return nil, errors.New("traced runs need the Flowserver (ModeMayflower)")
	}
	rounds := setupRounds
	if rec != nil {
		rounds = 1
	}
	full := time.Duration(opts.seconds * float64(time.Second))
	out := &outcome{correct: true, metrics: make(map[string]float64)}
	var (
		stats []roundStats
		last  *tbRun
	)
	for i := 0; i < rounds; i++ {
		ropts := opts
		ropts.seed = roundSeed(opts.seed, i)
		r, err := w.round(ropts, rec, full/time.Duration(rounds), out)
		if err != nil {
			return nil, err
		}
		// Keep only the records: a finished round's deployment, catalog
		// and clients must not count toward the next round's memory.
		stats = append(stats, roundStats{setup: r.d.setupTime, setupSteal: r.setupSteal, reads: r.reads, appends: r.appends})
		last = r
		// Start the next round from a collected heap, so this round's
		// garbage is not collected during the next one's timed set-up.
		runtime.GC()
	}
	if rec == nil {
		w.endToEnd(out, stats)
		return out, nil
	}
	last.perLayer(out.metrics, rec)
	// The simulator is not on a testbed workload's path; its layers are
	// reported from a fixed reference cell so every traced run carries
	// every metric (flat here by construction).
	ref, err := simReference(opts.seed)
	if err != nil {
		return nil, fmt.Errorf("simulator reference cell: %w", err)
	}
	for k, v := range ref {
		out.metrics[k] = v
	}
	return out, nil
}

// round boots one deployment, drives it for dur, checks its outputs into
// out and tears it down. A traced round spends half its time on the
// client path, every other operation in a span (tracing overhead and the
// client's own counters), and half on direct calls into each layer (the
// per-layer split).
func (w tbWorkload) round(opts options, rec *recorder, dur time.Duration, out *outcome) (*tbRun, error) {
	spec := w.spec(opts)
	appendPhase := w.appendPhase && rec == nil
	if appendPhase {
		spec.appendFiles = appendPhaseFiles
	}
	t0 := readCPUTicks()
	d, err := boot(spec, opts, rec)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r := &tbRun{d: d, w: w, clients: make(map[topology.NodeID]*hostClient), setupSteal: stealShare(t0, readCPUTicks()),
		apPieces: make([][]int, spec.appendFiles), apSizes: make([]int64, spec.appendFiles)}
	fmt.Fprintf(opts.log, "set-up (seed %d): %.3fs, %.1f%% steal\n", opts.seed, d.setupTime.Seconds(), 100*r.setupSteal)
	hostRNG := rand.New(rand.NewSource(opts.seed + 3))
	switch {
	case w.pinned != nil:
		r.reader, r.appender = w.pinned(d.cluster.Topo, hostRNG)
	case appendPhase:
		r.appender = pickHosts(d.cluster.Topo, hostRNG, 1, func(topology.Node) bool { return true })[0]
	}
	if w.pinned != nil || appendPhase {
		if r.apc, err = r.newClient(r.appender); err != nil {
			return nil, err
		}
	}
	if appendPhase {
		apDur := time.Duration(float64(dur) * appendPhaseShare)
		m := startStealMeter()
		r.phaseStart = time.Now()
		r.appends.elapsed = closedLoop(1, apDur, &r.gen, func(_, _ int, issued time.Time) {
			r.append(issued, false, false)
		})
		r.appends.ticks = m.stop()
		r.appends.recs = r.log.take()
		dur -= apDur
	}
	if rec == nil {
		m := startStealMeter()
		r.reads.elapsed = r.phase(dur, false, false)
		r.reads.ticks = m.stop()
	} else {
		r.phase(dur/2, true, false)
		r.phase(dur/2, false, true)
	}

	r.recs = r.log.all()
	r.reads.recs = r.recs
	for _, x := range append(r.recs, r.appends.recs...) {
		out.attempted++
		if x.err != nil {
			out.failed++
			fmt.Fprintln(opts.log, "operation failed:", x.err)
			if errors.Is(x.err, errMismatch) {
				out.correct = false
			}
		}
	}
	if err := r.verifyAppends(); err != nil {
		fmt.Fprintln(opts.log, "append check:", err)
		out.correct = false
	}
	if rec != nil {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err := d.checkProbe(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(opts.log, "relay probe check:", err)
			out.correct = false
		}
	}
	// Closing merges the cluster's drift audit into its registry.
	d.close()
	return r, nil
}

func (r *tbRun) newClient(host topology.NodeID) (*hostClient, error) {
	reg := obs.NewRegistry()
	cl, err := r.d.newClient(host, reg)
	if err != nil {
		return nil, err
	}
	return &hostClient{cl: cl, reg: reg}, nil
}

// readClient returns the reading client on host, creating it on first
// use.
func (r *tbRun) readClient(host topology.NodeID) (*hostClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if hc, ok := r.clients[host]; ok {
		return hc, nil
	}
	hc, err := r.newClient(host)
	if err != nil {
		return nil, err
	}
	r.clients[host] = hc
	return hc, nil
}

// readHost is the host job j's read is issued from.
func (r *tbRun) readHost(j workload.Job) topology.NodeID {
	if r.w.pinned != nil {
		return r.reader
	}
	return j.Client
}

// phase runs the workload's loop for dur. traceEveryOther wraps every
// other client-path operation in a span; direct replaces the client path
// with direct calls into the layers.
func (r *tbRun) phase(dur time.Duration, traceEveryOther, direct bool) time.Duration {
	caches := newMetaCaches()
	jobs := r.d.jobs
	r.phaseStart = time.Now()
	if r.w.open {
		n := int(math.Round(pacedRate * dur.Seconds()))
		times := poissonWindow(jobs, n, dur.Seconds())
		return openLoop(times, &r.gen, func(i int, due time.Time) {
			r.read(jobs[i], due, traceEveryOther && i%2 == 0, direct, caches)
		})
	}
	return closedLoop(closedWorkers, dur, &r.gen, func(w, k int, issued time.Time) {
		traced := traceEveryOther && k%2 == 0
		if r.w.pinned != nil && w == 1 {
			r.append(issued, traced, direct)
			return
		}
		r.read(jobs[(w+k*closedWorkers)%len(jobs)], issued, traced, direct, caches)
	})
}

// poissonWindow returns the arrival times of n reads in [0, window): the
// trace's first n+1 Poisson arrivals scaled so the (n+1)th falls at the
// window's end. Conditioned on n arrivals, a Poisson process's arrival
// times are exactly such order statistics, so every run offers the same
// count at the same mean rate without losing Poisson burstiness.
func poissonWindow(jobs []workload.Job, n int, window float64) []float64 {
	if n >= len(jobs) {
		n = len(jobs) - 1
	}
	scale := window / jobs[n].Time
	times := make([]float64, n)
	for i := range times {
		times[i] = jobs[i].Time * scale
	}
	return times
}

func (r *tbRun) read(j workload.Job, from time.Time, traced, direct bool, caches *metaCaches) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	host := r.readHost(j)
	start := time.Now()
	var err error
	if direct {
		root := r.d.rec.root("read")
		err = r.d.directRead(ctx, root, r.d.host(host), caches.of(host), j.FileIndex)
		root.end()
	} else {
		var hc *hostClient
		if hc, err = r.readClient(host); err == nil {
			var sp *open
			if traced {
				sp = r.d.rec.root("client.ReadAll")
			}
			var data []byte
			data, err = hc.cl.ReadAll(ctx, fileName(j.FileIndex))
			sp.end()
			if err == nil {
				err = r.d.checkRead(j.FileIndex, data)
			}
		}
	}
	r.record(opRead, from, start, r.d.spec.fileBytes, err, traced, direct)
}

func (r *tbRun) record(kind opKind, from, start time.Time, bytes int, err error, traced, direct bool) {
	now := time.Now()
	r.log.add(opRec{kind: kind, lat: now.Sub(from), svc: now.Sub(start), end: now.Sub(r.phaseStart),
		bytes: bytes, err: err, traced: traced, direct: direct})
}

func (r *tbRun) append(from time.Time, traced, direct bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	k := r.nextPiece
	r.nextPiece++
	f := k % len(r.d.apInfos)
	piece := payload(appendPieceBytes, r.d.opts.seed, "append", f, k)
	start := time.Now()
	var (
		size int64
		err  error
	)
	if direct {
		size, err = r.d.directAppend(ctx, r.d.host(r.appender), r.d.apInfos[f], appendName(f), piece)
	} else {
		var sp *open
		if traced {
			sp = r.d.rec.root("client.Append")
		}
		size, err = r.apc.cl.Append(ctx, appendName(f), piece)
		sp.end()
	}
	if err == nil {
		if want := r.apSizes[f] + int64(len(piece)); size != want {
			err = fmt.Errorf("%w: %s is %d bytes after append, want %d", errMismatch, appendName(f), size, want)
		} else {
			r.apSizes[f] = size
			r.apPieces[f] = append(r.apPieces[f], k)
		}
	}
	r.record(opAppend, from, start, len(piece), err, traced, direct)
}

// verifyAppends reads every appended file back and compares it with the
// concatenation of its acknowledged pieces.
func (r *tbRun) verifyAppends() error {
	for f, pieces := range r.apPieces {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		data, err := r.apc.cl.ReadAll(ctx, appendName(f))
		cancel()
		if err != nil {
			return fmt.Errorf("read back %s: %w", appendName(f), err)
		}
		if int64(len(data)) != r.apSizes[f] {
			return fmt.Errorf("%s holds %d bytes, want %d", appendName(f), len(data), r.apSizes[f])
		}
		off := 0
		for _, k := range pieces {
			want := payload(appendPieceBytes, r.d.opts.seed, "append", f, k)
			if !bytes.Equal(data[off:off+len(want)], want) {
				return fmt.Errorf("%s: piece %d at offset %d differs", appendName(f), k, off)
			}
			off += len(want)
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics from its rounds. Rates,
// means and medians are medians over slices of the run: a closed loop's
// quiet windows (see steal.go), or all of an open loop's rounds (which
// offer a fixed count at a fixed rate, so a backlog the system cannot
// clear shows in the rate; pacing, not CPU, sets their time). set-up
// time is the median over the quiet rounds.
// Tail percentiles are medians over the slices too where the slices are
// big enough (see summarise); otherwise they are taken over every sample
// of the run, where a closed loop, which keeps only its workers'
// operations in flight, lets a host stall delay a couple of samples, not
// a percent of them. Reads report p99. Appends report p90, always over
// every sample: a run makes only a few hundred to 1500 of them, and on a
// shared 2-vCPU host their p99 spread by up to half its median between
// runs of the same code.
func (w tbWorkload) endToEnd(out *outcome, rs []roundStats) {
	m := out.metrics
	var setups, setupSteal []float64
	var reads, appends slices
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
		setupSteal = append(setupSteal, r.setupSteal)
		if w.appendPhase {
			appends.addWindows(r.appends)
		}
		if w.open {
			reads.add(r.reads.recs, r.reads.elapsed, 0)
			continue
		}
		reads.addWindows(r.reads)
	}
	var quietSetups []float64
	for _, i := range quieter(setupSteal) {
		quietSetups = append(quietSetups, setups[i])
	}
	m["setup_s"] = median(quietSetups)
	m["peak_rss_mib"] = peakRSSMiB()
	if !w.open {
		reads = reads.quiet()
	}
	summarise(m, "read", reads, opRead, readTail, false)
	// bulk-rw appends in its read windows, the others in their own phase.
	if w.appendPhase {
		appends = appends.quiet()
	} else {
		appends = reads
	}
	summarise(m, "append", appends, opAppend, appendTail, true)
	delete(m, "append_ops_s")
	delete(m, "append_mean_ms")
	m["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
}

// summarise adds <prefix>_ops_s, _mib_s, _mean_ms and _p50_ms as medians
// over the slices, and the tail percentile <prefix>_p<tail>_ms, for one
// kind of operation. Unless pooled is set, the tail is a median over the
// slices too when every slice holds at least ten samples beyond it; it is
// taken over all samples otherwise.
func summarise(m map[string]float64, prefix string, ss slices, kind opKind, tail int, pooled bool) {
	q := float64(tail) / 100
	var rate, tput, avg, p50, tails []float64
	var all latencies
	perSlice := !pooled
	for i, s := range ss.recs {
		ok := filter(s, kind, succeeded)
		lat := latMS(ok)
		all = append(all, lat...)
		span := ss.spans[i]
		rate = append(rate, float64(len(ok))/span.Seconds())
		tput = append(tput, totalBytes(ok)/mib/span.Seconds())
		avg = append(avg, mean(lat))
		p50 = append(p50, quantile(lat, 0.50))
		tails = append(tails, quantile(lat, q))
		perSlice = perSlice && float64(len(lat))*(1-q) >= 10
	}
	m[prefix+"_ops_s"] = median(rate)
	m[prefix+"_mib_s"] = median(tput)
	m[prefix+"_mean_ms"] = median(avg)
	m[prefix+"_p50_ms"] = median(p50)
	name := fmt.Sprintf("%s_p%d_ms", prefix, tail)
	if perSlice {
		m[name] = median(tails)
	} else {
		m[name] = quantile(all, q)
	}
}

// slices are the parts of a run its metrics are medians over, with each
// slice's length and the share of CPU time stolen from the machine
// during it.
type slices struct {
	recs  [][]opRec
	spans []time.Duration
	steal []float64
}

func (s *slices) add(recs []opRec, span time.Duration, steal float64) {
	s.recs = append(s.recs, recs)
	s.spans = append(s.spans, span)
	s.steal = append(s.steal, steal)
}

// addWindows cuts a closed loop's phase into consecutive windows by
// completion time, dropping a final partial window. A phase shorter than
// one window is one slice.
func (s *slices) addWindows(p phaseLog) {
	n := int(p.elapsed / window)
	steal := windowSteal(p.ticks, n)
	if n < 1 {
		s.add(p.recs, p.elapsed, steal[0])
		return
	}
	ws := make([][]opRec, n)
	for _, x := range p.recs {
		if i := int(x.end / window); i < n {
			ws[i] = append(ws[i], x)
		}
	}
	for i, w := range ws {
		s.add(w, window, steal[i])
	}
}

// quiet returns the quiet slices (see quieter).
func (s slices) quiet() slices {
	var out slices
	for _, i := range quieter(s.steal) {
		out.add(s.recs[i], s.spans[i], s.steal[i])
	}
	return out
}
