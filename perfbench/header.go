package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// header is a workload's plan, in the shape of a TestGround test plan:
// what the workload minimises, which layers it loads and which it
// bypasses, how load is offered, and how data reaches storage. It is
// printed before every result so a number never travels without the
// conditions it was measured under.
type header struct {
	minimises string
	loads     string
	bypasses  string
	loop      string
	why       string
}

// flushPolicy is the same for every workload.
const flushPolicy = "kvstore fsync off (as in the paper); chunk writes not synced; " +
	"reads served from the OS page cache over loopback"

// render prints the plan and the host stamp.
func (h header) render(stamp string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# minimises: %s\n", h.minimises)
	fmt.Fprintf(&b, "# loads:     %s\n", h.loads)
	fmt.Fprintf(&b, "# bypasses:  %s\n", h.bypasses)
	fmt.Fprintf(&b, "# loop:      %s\n", h.loop)
	fmt.Fprintf(&b, "# flush:     %s\n", flushPolicy)
	fmt.Fprintf(&b, "# why:       %s\n", h.why)
	fmt.Fprintf(&b, "# host:      %s", stamp)
	return b.String()
}

// hostStamp names the machine a result was measured on: CPU model,
// online CPUs, GOMAXPROCS and the Go version.
func hostStamp() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// plan is one benchmark workload.
type plan struct {
	name   string
	header header
	run    func(opts options, rec *recorder) (*outcome, error)
}

var plans = map[string]*plan{}

func register(p *plan) { plans[p.name] = p }

func workloadNames() string {
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
