package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/experiment"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// fig6bLambdas are Figure 6(b)'s arrival rates (experiment.Figure6b).
var fig6bLambdas = []float64{0.06, 0.07, 0.08, 0.09, 0.10}

// testbedProbeSeconds is how long a traced sim-sweep run drives the
// small-read workload to report the testbed layers it bypasses.
const testbedProbeSeconds = 2

const (
	// writeCellJobs is the length of each write-only cell.
	writeCellJobs = 60
)

func init() {
	register(&plan{
		name: "sim-sweep",
		header: header{
			minimises: "wall time to simulate: read_ops_s and read_mib_s count simulated read jobs and bytes per wall-clock second, read_*_ms is the wall time of one read cell's experiment.Run; append_* the same for the write-only cells",
			loads:     "netsim max-min reallocation, in-process flowserver selection, workload trace generation",
			bypasses:  "rpc, wire, nameserver, dataserver, sockets and the emulated network: the prediction for CPU-side changes there is no change",
			loop:      "Figure 6(b): 5 schemes x 5 lambdas, core-heavy locality, 1200 jobs per cell, 64-host paper topology at 8:1, cells on nproc workers; plus a 60-job write-only Mayflower cell (WriteFraction 1) per lambda",
			why:       "every paper figure comes from the simulator; its time goes to netsim reallocation and flowserver selection",
		},
		run: runSimSweep,
	})
}

// simBase is the sweep's base configuration for a seed.
func simBase(seed int64, topo *topology.Topology) experiment.Config {
	base := experiment.Defaults(experiment.SchemeMayflower)
	base.Seed = seed
	base.Locality = workload.LocalityCoreHeavy
	base.Workers = runtime.NumCPU()
	base.Topo = topo
	return base
}

// simCells lists Figure 6(b)'s cells in its enumeration order, then one
// write-only Mayflower cell per rate. A simulated append fans out to
// every replica and costs some fifty times a read's wall time, so the
// write cells are kept short (writeCellJobs) to leave the sweep mostly
// reads.
func simCells(base experiment.Config) []experiment.Config {
	var cells []experiment.Config
	for _, lambda := range fig6bLambdas {
		for _, s := range experiment.AllSchemes {
			cfg := base
			cfg.Lambda = lambda
			cfg.Scheme = s
			cells = append(cells, cfg)
		}
	}
	for _, lambda := range fig6bLambdas {
		cfg := base
		cfg.Lambda = lambda
		cfg.WriteFraction = 1
		cfg.NumJobs, cfg.WarmupJobs = writeCellJobs, writeCellJobs/10
		cells = append(cells, cfg)
	}
	return cells
}

// isWrite reports whether a cell simulates appends.
func isWrite(cfg experiment.Config) bool { return cfg.WriteFraction > 0 }

// simSetup builds what a sweep needs before it simulates: the topology,
// and each rate's catalog and trace (experiment.Run builds the same ones
// again for each cell; this times that work on its own).
func simSetup(seed int64, rec *recorder) (*topology.Topology, error) {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		return nil, err
	}
	base := simBase(seed, topo)
	for _, lambda := range fig6bLambdas {
		rng := rand.New(rand.NewSource(seed))
		cat, err := workload.NewCatalog(topo, rng, workload.CatalogConfig{
			NumFiles: base.NumFiles, SizeBits: base.FileBits, Replication: base.Replication,
			Placement: workload.PlacementPaperEval,
		})
		if err != nil {
			return nil, err
		}
		sp := rec.root("workload.Generate")
		_, err = workload.Generate(topo, rng, cat, workload.TraceConfig{
			LambdaPerServer: lambda, NumJobs: base.NumJobs, ZipfSkew: 1.1, Locality: base.Locality,
		})
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// runCells runs the cells on workers goroutines, each under a span when
// tracing, each with a private registry when regs is true. It returns
// the results, the registries and each cell's wall time in milliseconds.
func runCells(cfgs []experiment.Config, workers int, rec *recorder, regs bool) ([]*experiment.Result, []*obs.Registry, latencies, error) {
	results := make([]*experiment.Result, len(cfgs))
	walls := make(latencies, len(cfgs))
	registries := make([]*obs.Registry, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				cfg := cfgs[i]
				if regs {
					registries[i] = obs.NewRegistry()
					cfg.Metrics = registries[i]
				}
				sp := rec.root("experiment.Run")
				t0 := time.Now()
				results[i], errs[i] = experiment.Run(cfg)
				walls[i] = ms(time.Since(t0))
				sp.end()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cell %d (%s, lambda %g): %w", i, cfgs[i].Scheme, cfgs[i].Lambda, err)
		}
	}
	return results, registries, walls, nil
}

// sameResults reports whether two runs of the same cells produced
// identical completion times.
func sameResults(a, b []*experiment.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].CompletionTimes, b[i].CompletionTimes
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if x[j] != y[j] {
				return false
			}
		}
	}
	return true
}

func runSimSweep(opts options, rec *recorder) (*outcome, error) {
	out := &outcome{correct: true, metrics: make(map[string]float64)}
	// Every sweep simulates its own seed (the run's, then seeds derived
	// from it), so no single trace sets the run's numbers. Each sweep's
	// set-up (topology and traces) is timed on its own; setup_s is the
	// median over the quiet sweeps (see steal.go). Each sweep gives one
	// value of each read metric, and the result is the median over the
	// quiet sweeps, so a stall of the shared host moves one sweep, not the
	// result. The write cells are few per sweep, so their wall times are
	// pooled over the quiet sweeps instead.
	type sweep struct {
		setup      float64
		read       map[string]float64
		writeWalls latencies
		writeRate  float64
		steal      float64
	}
	var (
		first    []experiment.Config
		firstRes []*experiment.Result
		regs     []*obs.Registry
		sweeps   []sweep
	)
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for len(sweeps) == 0 || time.Now().Before(deadline) {
		seed := roundSeed(opts.seed, len(sweeps))
		ticks := readCPUTicks()
		t0 := time.Now()
		topo, err := simSetup(seed, rec)
		if err != nil {
			return nil, err
		}
		sw := sweep{setup: time.Since(t0).Seconds()}
		base := simBase(seed, topo)
		cells := simCells(base)
		res, r, walls, err := runCells(cells, base.Workers, rec, rec != nil)
		out.attempted += int64(len(cells))
		if err != nil {
			return nil, err
		}
		regs = append(regs, r...)
		if first == nil {
			first, firstRes = cells, res
		}
		// Cells run concurrently on base.Workers workers, so their summed
		// wall times over the worker count is the sweep's busy time.
		var readWalls latencies
		var readBusy, writeBusy, readJobs, writeJobs float64
		for i, cfg := range cells {
			if isWrite(cfg) {
				sw.writeWalls = append(sw.writeWalls, walls[i])
				writeBusy += walls[i] / 1000 / float64(base.Workers)
				writeJobs += float64(cfg.NumJobs)
				continue
			}
			readWalls = append(readWalls, walls[i])
			readBusy += walls[i] / 1000 / float64(base.Workers)
			readJobs += float64(cfg.NumJobs)
		}
		sw.read = map[string]float64{"read_ops_s": readJobs / readBusy}
		readWalls.summary(sw.read, "read")
		sw.writeRate = writeJobs * base.FileBits / 8 / mib / writeBusy
		sw.steal = stealShare(ticks, readCPUTicks())
		sweeps = append(sweeps, sw)
	}

	// Output checks, outside the measured sweeps: the first seed's cells
	// simulated again must give identical results, and its read cells must
	// be experiment.Figure6b's.
	again, _, _, err := runCells(first, first[0].Workers, nil, false)
	if err != nil {
		return nil, err
	}
	if !sameResults(firstRes, again) {
		fmt.Fprintln(opts.log, "sim-sweep: the same seed simulated twice gave different results")
		out.correct = false
	}
	if err := checkFigure6b(first[0], firstRes); err != nil {
		fmt.Fprintln(opts.log, "sim-sweep:", err)
		out.correct = false
	}

	if rec != nil {
		simLayers(out.metrics, regs, rec)
		// The testbed layers are not on the simulator's path; a short
		// small-read run reports them (flat here by construction).
		probe := opts
		probe.seconds = math.Min(opts.seconds, testbedProbeSeconds)
		p, err := plans["small-read"].run(probe, rec)
		if err != nil {
			return nil, fmt.Errorf("testbed probe: %w", err)
		}
		for k, v := range p.metrics {
			if _, ok := out.metrics[k]; !ok {
				out.metrics[k] = v
			}
		}
		out.correct = out.correct && p.correct
		return out, nil
	}

	steal := make([]float64, len(sweeps))
	for i, sw := range sweeps {
		steal[i] = sw.steal
	}
	var (
		setups, writeRate []float64
		writeWalls        latencies
		read              = map[string][]float64{}
	)
	for _, i := range quieter(steal) {
		sw := sweeps[i]
		setups = append(setups, sw.setup)
		writeRate = append(writeRate, sw.writeRate)
		writeWalls = append(writeWalls, sw.writeWalls...)
		for k, v := range sw.read {
			read[k] = append(read[k], v)
		}
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mib"] = peakRSSMiB()
	m["ok_frac"] = 1
	for _, k := range []string{"read_ops_s", "read_mean_ms", "read_p50_ms", "read_p99_ms"} {
		m[k] = median(read[k])
	}
	m["read_mib_s"] = m["read_ops_s"] * first[0].FileBits / 8 / mib
	m["append_mib_s"] = median(writeRate)
	m["append_p50_ms"] = quantile(writeWalls, 0.50)
	m[fmt.Sprintf("append_p%d_ms", appendTail)] = quantile(writeWalls, float64(appendTail)/100)
	// The simulated outcome itself is deterministic for a seed; it is
	// logged for the record, and checked above for repeatability.
	var jct []float64
	for i, cfg := range first {
		if cfg.Scheme == experiment.SchemeMayflower && !isWrite(cfg) {
			jct = append(jct, firstRes[i].CompletionTimes...)
		}
	}
	fmt.Fprintf(opts.log, "sim-sweep: Mayflower mean simulated completion time %.4fs over %d jobs of seed %d, %d sweeps\n",
		mean(jct), len(jct), opts.seed, len(sweeps))
	return out, nil
}

// checkFigure6b confirms the benchmark's read cells are Figure 6(b)'s: every
// point experiment.Figure6b reports has the mean of the matching cell.
func checkFigure6b(base experiment.Config, cells []*experiment.Result) error {
	series, err := experiment.Figure6b(base)
	if err != nil {
		return fmt.Errorf("Figure6b: %w", err)
	}
	if len(series.Points) > len(cells) {
		return fmt.Errorf("Figure6b has %d points, the benchmark %d cells", len(series.Points), len(cells))
	}
	for i, p := range series.Points {
		got := cells[i].Summary.Mean
		if math.Abs(p.Mean-got) > 1e-9*math.Abs(p.Mean) {
			return fmt.Errorf("Figure6b point %d (%s, lambda %g): mean %g, benchmark cell %g", i, p.Scheme, p.X, p.Mean, got)
		}
	}
	return nil
}

// simLayers fills the simulator's per-layer metrics from the cells'
// registries and spans.
func simLayers(m map[string]float64, regs []*obs.Registry, rec *recorder) {
	var reallocs, jobs, compFlows, compN, selSum, selN, cands, sels, drops, samples, driftSum, driftN float64
	for _, reg := range regs {
		s := reg.Snapshot()
		reallocs += registryCounters(s, "netsim.reallocs", "")
		jobs += registryCounters(s, "experiment.jobs_started", "")
		if h, ok := s.Histograms["netsim.component_flows"]; ok {
			compFlows += h.Mean * float64(h.Count)
			compN += float64(h.Count)
		}
		if h, ok := s.Histograms["flowserver.select_seconds"]; ok {
			selSum += h.Mean * float64(h.Count)
			selN += float64(h.Count)
		}
		cands += registryCounters(s, "flowserver.candidates_evaluated", "")
		sels += registryCounters(s, "flowserver.selections", "")
		drops += registryCounters(s, "flowserver.poll_drops_", "")
		samples += registryCounters(s, "flowserver.poll_samples", "")
		for name, h := range s.Histograms {
			if len(name) > len("experiment.drift.") && name[:len("experiment.drift.")] == "experiment.drift." {
				driftSum += h.Mean * float64(h.Count)
				driftN += float64(h.Count)
			}
		}
	}
	m["netsim.reallocs_per_job"] = ratio(reallocs, jobs)
	m["netsim.component_flows_mean"] = ratio(compFlows, compN)
	m["flowserver.select_cpu_us"] = ratio(selSum, selN) * 1e6
	m["flowserver.candidates_per_select"] = ratio(cands, sels)
	m["flowserver.poll_drop_frac"] = ratio(drops, samples)
	m["flowserver.drift_abs_mean"] = ratio(driftSum, driftN)
	if s := byName(rec.snapshot())["workload.Generate"]; s != nil {
		m["workload.generate_ms"] = s.meanMS()
	}
}

// simReference runs one fixed Figure 6(b) cell (Mayflower, lambda 0.07,
// 300 jobs) and reports the simulator's layer metrics from it.
func simReference(seed int64) (map[string]float64, error) {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		return nil, err
	}
	cfg := simBase(seed, topo)
	cfg.Lambda = 0.07
	cfg.NumJobs, cfg.WarmupJobs = 300, 30
	_, regs, _, err := runCells([]experiment.Config{cfg}, 1, nil, true)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	simLayers(m, regs, newRecorder(0))
	return map[string]float64{
		"netsim.reallocs_per_job":     m["netsim.reallocs_per_job"],
		"netsim.component_flows_mean": m["netsim.component_flows_mean"],
	}, nil
}
