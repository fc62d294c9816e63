package main

import (
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opRead opKind = iota
	opAppend
)

// opRec is one operation's outcome. lat is timed from when the operation
// was due (open loop) or issued (closed loop); svc from when it started.
type opRec struct {
	kind   opKind
	lat    time.Duration
	svc    time.Duration
	end    time.Duration // completion, from the start of its phase
	bytes  int
	err    error
	traced bool // wrapped in a span on the client path
	direct bool // made by direct calls into the layers
}

// opLog collects operation records from concurrent workers.
type opLog struct {
	mu   sync.Mutex
	recs []opRec
}

func (l *opLog) add(r opRec) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// take returns the records and empties the log.
func (l *opLog) take() []opRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.recs
	l.recs = nil
	return recs
}

func (l *opLog) all() []opRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]opRec(nil), l.recs...)
}

// filter returns the records of one kind that keep accepts.
func filter(recs []opRec, kind opKind, keep func(opRec) bool) []opRec {
	var out []opRec
	for _, r := range recs {
		if r.kind == kind && (keep == nil || keep(r)) {
			out = append(out, r)
		}
	}
	return out
}

func succeeded(r opRec) bool { return r.err == nil }

func latMS(recs []opRec) latencies {
	out := make(latencies, len(recs))
	for i, r := range recs {
		out[i] = ms(r.lat)
	}
	return out
}

func svcMS(recs []opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.svc)
	}
	return out
}

func totalBytes(recs []opRec) float64 {
	var n int
	for _, r := range recs {
		n += r.bytes
	}
	return float64(n)
}

// genStats is the load generator's own account: how late it issued
// operations and how many were in flight at once.
type genStats struct {
	mu          sync.Mutex
	late        []float64 // ms
	inflight    atomic.Int64
	maxInflight atomic.Int64
}

func (g *genStats) issued(late time.Duration) {
	g.mu.Lock()
	g.late = append(g.late, ms(late))
	g.mu.Unlock()
	n := g.inflight.Add(1)
	for {
		m := g.maxInflight.Load()
		if n <= m || g.maxInflight.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *genStats) done() { g.inflight.Add(-1) }

func (g *genStats) lateP99() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return quantile(g.late, 0.99)
}

// closedLoop runs workers clients for d: each issues op(w, k) for
// k = 0, 1, ... and waits for it before issuing the next. A closed loop
// has no schedule to fall behind, so its lateness is the generator's
// own gap between one operation's end and the next one's start.
func closedLoop(workers int, d time.Duration, g *genStats, op func(w, k int, issued time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prevEnd time.Time
			for k := 0; ; k++ {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if !prevEnd.IsZero() {
					g.issued(now.Sub(prevEnd))
				} else {
					g.issued(0)
				}
				op(w, k, now)
				g.done()
				prevEnd = time.Now()
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop issues op(i, due) for every arrival time in times (seconds
// from the loop's start) whether or not earlier operations finished, and
// waits for all of them. Lateness is how long after its due time each
// operation actually started.
func openLoop(times []float64, g *genStats, op func(i int, due time.Time)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range times {
		due := start.Add(time.Duration(t * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			g.issued(time.Since(due))
			op(i, due)
			g.done()
		}(i, due)
	}
	wg.Wait()
	return time.Since(start)
}
