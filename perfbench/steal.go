package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on a virtual machine whose CPUs the host shares
// with other tenants. While the hypervisor runs someone else on one of
// them, the guest kernel counts the lost time as steal (/proc/stat), and
// a closed loop, which keeps every CPU busy, slows by about that share:
// on a 2-vCPU VM, 1 s windows with 13% steal completed 20-25% fewer
// small reads than windows with none. So closed-loop windows and set-up
// rounds are taken over their quiet samples: every one with at most
// quietSteal, and at least the half with the least steal. A sample is
// chosen by what the host did, never by what the program measured.

// quietSteal is the steal share up to which a sample always counts as
// quiet: the kernel counts in 10 ms ticks, so on two CPUs one tick is
// 0.5% of a 1 s window.
const quietSteal = 0.03

// cpuTicks is a reading of the machine's cumulative CPU time.
type cpuTicks struct {
	steal, total uint64
	ok           bool // false where /proc/stat is not available
}

// readCPUTicks reads the first ("cpu") line of /proc/stat.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShare is the share of the CPU time between two readings that was
// stolen, or 0 when either reading failed or no time passed.
func stealShare(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealMeter reads the CPU ticks when started, every window after that,
// and when stopped: window i of a phase started together with the meter
// lies between readings i and i+1.
type stealMeter struct {
	stopc, done chan struct{}
	ticks       []cpuTicks
}

func startStealMeter() *stealMeter {
	m := &stealMeter{stopc: make(chan struct{}), done: make(chan struct{}), ticks: []cpuTicks{readCPUTicks()}}
	go func() {
		defer close(m.done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.ticks = append(m.ticks, readCPUTicks())
			case <-m.stopc:
				m.ticks = append(m.ticks, readCPUTicks())
				return
			}
		}
	}()
	return m
}

// stop ends the meter and returns its readings.
func (m *stealMeter) stop() []cpuTicks {
	close(m.stopc)
	<-m.done
	return m.ticks
}

// windowSteal returns the steal share of each of a phase's n windows
// (see windows) from the phase's meter readings; with n == 0 the phase
// is one slice, measured from the first reading to the last.
func windowSteal(ticks []cpuTicks, n int) []float64 {
	if n == 0 {
		return []float64{stealShare(ticks[0], ticks[len(ticks)-1])}
	}
	out := make([]float64, n)
	for i := range out {
		if i+1 < len(ticks) {
			out[i] = stealShare(ticks[i], ticks[i+1])
		}
	}
	return out
}

// quieter returns the indices of the quiet samples in their original
// order: those with at most quietSteal, or the half (rounded up) with
// the least steal if that is more. Ties keep the earlier sample.
func quieter(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steal[idx[keep]] <= quietSteal {
		keep++
	}
	idx = idx[:keep]
	sort.Ints(idx)
	return idx
}
