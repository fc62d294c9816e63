package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// testSeed is not the seed the benchmark was tuned on (1), so a claim
// checked here was not fitted to its inputs.
const testSeed = 2

// benchmarkJSON is the subset of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func (b benchmarkJSON) bound(t *testing.T, name string) float64 {
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return 0
}

// TestQuieter checks which samples the metrics are taken over: every
// quiet one, and at least the half with the least steal.
func TestQuieter(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.10, 0, 0.20, 0.01}, []int{1, 3}},
		{[]float64{0.10, 0.20, 0.15}, []int{0, 2}},
		{[]float64{0.01, 0.02, 0, 0.05}, []int{0, 1, 2}},
		{[]float64{0, 0, 0}, []int{0, 1, 2}},
	} {
		got := quieter(c.steal)
		if len(got) != len(c.want) {
			t.Errorf("quieter(%v) = %v, want %v", c.steal, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("quieter(%v) = %v, want %v", c.steal, got, c.want)
				break
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	got := map[string]string{}
	for _, m := range b.EndToEnd {
		got[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		got[m.Name] = m.Unit
	}
	want := map[string]string{}
	for k, v := range endToEndUnits {
		want[k] = v
	}
	for k, v := range perLayerUnits {
		want[k] = v
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("metric %s: BENCHMARK.json unit %q, benchmark reports %q", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("BENCHMARK.json names %s, which the benchmark does not report", k)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range plans {
		have = append(have, n)
	}
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, have)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "read", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 9 * ms, End: 12 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 2 * ms, End: 3 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 4 * time.Millisecond, 2: 2 * time.Millisecond, 3: 3 * time.Millisecond,
		4: 3 * time.Millisecond, 5: 1 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
	st := byName(spans)
	if got := st["read"].kidsSum[0]; got != 9 {
		t.Errorf("read's children sum to %gms, want 9", got)
	}
}

// runBrief runs one workload for a short time and checks its result.
func runBrief(t *testing.T, name string, seconds float64, trace bool, mutate func(*options)) map[string]float64 {
	t.Helper()
	opts := options{seed: testSeed, seconds: seconds, trace: trace, log: io.Discard}
	if trace {
		opts.spansOut = t.TempDir() + "/spans.json"
	}
	if mutate != nil {
		mutate(&opts)
	}
	res, err := execute(plans[name], opts)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s (trace %v): correct=%v failed=%d of %d", name, trace, res.Correct, res.Failed, res.Attempted)
	}
	out := make(map[string]float64, len(res.Metrics))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", name, k, m.Value)
		}
		out[k] = m.Value
	}
	return out
}

// TestWorkloadsOnSecondSeed runs every workload briefly, untraced and
// traced, on a seed other than the one used while writing it.
func TestWorkloadsOnSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("boots testbeds and runs sweeps")
	}
	for name := range plans {
		t.Run(name, func(t *testing.T) {
			m := runBrief(t, name, 1.5, false, nil)
			for k, v := range m {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, v)
				}
			}
			if m["ok_frac"] != 1 {
				t.Errorf("ok_frac = %v, want 1", m["ok_frac"])
			}
			runBrief(t, name, 1.5, true, nil)
		})
	}
}

// TestDialDelayMovesOnlyDialingWorkloads is the benchmark's sensitivity
// check: a fixed delay of a quarter of small-read's median read time,
// added to every bulk-data dial through client.Options.DialData, must
// push small-read's read_p50_ms past its bound, while sim-sweep, which
// never dials, stays within its bound.
func TestDialDelayMovesOnlyDialingWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots testbeds and runs sweeps")
	}
	b := readBenchmarkJSON(t)
	base := runBrief(t, "small-read", 3, false, nil)
	delay := time.Duration(base["read_p50_ms"] / 4 * float64(time.Millisecond))
	slow := runBrief(t, "small-read", 3, false, func(o *options) { o.dialDelay = delay })
	bound := b.bound(t, "read_p50_ms")
	t.Logf("small-read read_p50_ms %.4f -> %.4f with a %v dial delay (bound %.2f)", base["read_p50_ms"], slow["read_p50_ms"], delay, bound)
	if slow["read_p50_ms"] <= base["read_p50_ms"]*(1+bound) {
		t.Errorf("small-read read_p50_ms %.4f -> %.4f: the delay did not leave the %.2f bound", base["read_p50_ms"], slow["read_p50_ms"], bound)
	}

	simBase := runBrief(t, "sim-sweep", 3, false, nil)
	simSlow := runBrief(t, "sim-sweep", 3, false, func(o *options) { o.dialDelay = delay })
	for _, name := range []string{"read_ops_s", "read_p50_ms"} {
		bound := b.bound(t, name)
		change := math.Abs(simSlow[name]/simBase[name] - 1)
		t.Logf("sim-sweep %s %.4g -> %.4g (bound %.2f)", name, simBase[name], simSlow[name], bound)
		if change > bound {
			t.Errorf("sim-sweep %s moved by %.1f%% with a dial delay it never pays", name, 100*change)
		}
	}
}

// TestPacedZipfSeparatesPolicies runs paced-zipf under Mayflower's joint
// replica/path selection and under HDFS rack-aware selection with ECMP
// paths: the paper's headline metric must tell them apart.
func TestPacedZipfSeparatesPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("boots testbeds")
	}
	mf := runBrief(t, "paced-zipf", 4, false, nil)
	ecmp := runBrief(t, "paced-zipf", 4, false, func(o *options) { o.hdfsECMP = true })
	t.Logf("paced-zipf read_mean_ms: Mayflower %.2f, HDFS-ECMP %.2f; read_p99_ms %.2f vs %.2f",
		mf["read_mean_ms"], ecmp["read_mean_ms"], mf["read_p99_ms"], ecmp["read_p99_ms"])
	if mf["read_mean_ms"] >= ecmp["read_mean_ms"] {
		t.Errorf("Mayflower read_mean_ms %.2f is not below HDFS-ECMP's %.2f", mf["read_mean_ms"], ecmp["read_mean_ms"])
	}
}
