package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the recorder's memory; spans past it are counted, not
// kept.
const maxSpans = 1 << 19

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's self time (see selfTimes), filled in when the
	// spans are written out.
	Self int64 `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Safe for concurrent
// use; a nil *recorder records nothing.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64
	limit   int

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit}
}

// open is a span that has started and not yet ended.
type open struct {
	rec    *recorder
	id     int64
	parent int64
	req    int64
	name   string
	start  int64
}

// root starts the first span of a new request.
func (r *recorder) root(name string) *open {
	if r == nil {
		return nil
	}
	return r.begin(name, 0, r.nextReq.Add(1))
}

func (r *recorder) begin(name string, parent, req int64) *open {
	return &open{rec: r, id: r.nextID.Add(1), parent: parent, req: req, name: name,
		start: int64(time.Since(r.epoch))}
}

// child starts a span caused by o, in o's request.
func (o *open) child(name string) *open {
	if o == nil {
		return nil
	}
	return o.rec.begin(name, o.id, o.req)
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start,
		End: int64(time.Since(o.rec.epoch))}
	o.rec.add(s)
	return s.dur()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON dumps every recorded span with its self time.
func (r *recorder) writeJSON(path string) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = int64(self[spans[i].ID])
	}
	r.mu.Lock()
	dropped := r.dropped
	r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"dropped"`
	}{spans, dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanStats summarises the recorded spans of one name.
type spanStats struct {
	count   int
	total   time.Duration
	kidsSum []float64 // ms per span: summed durations of its direct children
}

func (s *spanStats) meanMS() float64 { return ratio(ms(s.total), float64(s.count)) }

// byName groups spans by name, with per-span child sums.
func byName(spans []span) map[string]*spanStats {
	kidSum := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kidSum[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.kidsSum = append(st.kidsSum, ms(kidSum[s.ID]))
	}
	return out
}
