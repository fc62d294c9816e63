// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload from a single process, either against the
// in-process loopback testbed (internal/testbed: nameserver, flowserver,
// one dataserver per emulated host, real TCP on loopback) or through the
// flow-level simulator (internal/experiment), checks every output, and
// prints one JSON result as its last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload small-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the same workload runs again with spans recorded around every call the
// benchmark makes into a layer's public functions, and the result holds
// the per-layer metrics; the spans are written as JSON to --spans-out.
//
// The benchmark builds every input (catalogs, traces, file payloads) from
// --seed; the program under test receives only the generated inputs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runLimit bounds one invocation: a run that overshoots it is killed with
// a nonzero exit rather than printing a late result.
const runLimit = 170 * time.Second

// workDirRoot holds every file a run writes (chunk stores, nameserver
// databases, span dumps), relative to the directory the benchmark runs
// from. It is also where run.sh puts the build.
const workDirRoot = ".bench_build"

// options are one invocation's settings.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	spansOut string
	// dialDelay, when positive, wraps every testbed client's bulk-data
	// dialer with this fixed delay (the sensitivity check in the tests).
	dialDelay time.Duration
	// hdfsECMP runs testbed workloads in HDFS-ECMP mode instead of
	// Mayflower (the one-off policy comparison in the tests).
	hdfsECMP bool
	// log receives progress and the workload header.
	log io.Writer
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric the benchmark reports and its unit. The first
// group is reported by untraced runs, the second by traced runs; both
// match BENCHMARK.json (checked by TestMetricNamesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ok_frac":       "frac",
	"peak_rss_mib":  "MiB",
	"read_ops_s":    "1/s",
	"read_mib_s":    "MiB/s",
	"read_mean_ms":  "ms",
	"read_p50_ms":   "ms",
	"read_p99_ms":   "ms",
	"append_mib_s":  "MiB/s",
	"append_p50_ms": "ms",
	"append_p90_ms": "ms",
}

var perLayerUnits = map[string]string{
	"client.cache_hit_ratio":           "frac",
	"client.rpc_calls_per_read":        "count",
	"client.rpc_calls_per_append":      "count",
	"client.degraded_frac":             "frac",
	"nameserver.lookup_ms":             "ms",
	"nameserver.create_ms":             "ms",
	"flowserver.select_ms":             "ms",
	"flowserver.finished_ms":           "ms",
	"flowserver.select_write_ms":       "ms",
	"flowserver.select_cpu_us":         "us",
	"flowserver.candidates_per_select": "count",
	"flowserver.drift_abs_mean":        "frac",
	"flowserver.poll_drop_frac":        "frac",
	"dataserver.stat_ms":               "ms",
	"dataserver.dial_ms":               "ms",
	"dataserver.first_byte_ms":         "ms",
	"dataserver.body_ms":               "ms",
	"dataserver.append_ms":             "ms",
	"dataserver.relay_hop_ms":          "ms",
	"dataserver.relay_scheduled_frac":  "frac",
	"emunet.reallocs_per_read":         "count",
	"netsim.reallocs_per_job":          "count",
	"netsim.component_flows_mean":      "count",
	"workload.generate_ms":             "ms",
	"gen.late_p99_ms":                  "ms",
	"gen.inflight_max":                 "count",
	"trace.unaccounted_ms":             "ms",
	"trace.overhead_frac":              "frac",
}

// outcome is what a workload hands back: the op counts, whether every
// output check passed, and its metrics by name (units come from the
// tables above).
type outcome struct {
	attempted, failed int64
	correct           bool
	metrics           map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+workloadNames())
		seed     = fs.Int64("seed", 1, "seed every input is built from")
		seconds  = fs.Float64("seconds", 10, "measured duration of the run")
		trace    = fs.Int("trace", 0, "1: record spans and report the per-layer metrics")
		spansOut = fs.String("spans-out", "", "span dump for --trace 1 (default "+workDirRoot+"/spans-<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0")
		return 2
	}
	w, ok := plans[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	opts := options{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spansOut: *spansOut,
		log:      stderr,
	}
	if opts.trace && opts.spansOut == "" {
		opts.spansOut = filepath.Join(workDirRoot, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	// One process, at most nproc runnable threads: clients, servers and
	// the simulator share the host's cores, as the workload headers say.
	runtime.GOMAXPROCS(runtime.NumCPU())
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintln(stdout, w.header.render(hostStamp()))
	res, err := execute(w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// execute runs one workload and turns its outcome into the result line,
// checking that it reported exactly the metrics the run mode promises.
func execute(w *plan, opts options) (*result, error) {
	if err := os.MkdirAll(workDirRoot, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if opts.trace {
		rec = newRecorder(maxSpans)
	}
	out, err := w.run(opts, rec)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := rec.writeJSON(opts.spansOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	units := endToEndUnits
	if opts.trace {
		units = perLayerUnits
	}
	res := &result{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	var missing []string
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s did not report %v", w.name, missing)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
