package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one request share Req; Parent is the index of the span
// that caused it (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// A tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per call site.
type tracer struct {
	epoch time.Time
	reqs  atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// request allocates a request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span starting now.
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	return t.beginAt(name, req, parent, time.Now())
}

// beginAt opens a span with an explicit start, for spans that begin
// before the benchmark learns of them (an arrival's due time).
func (t *tracer) beginAt(name string, req int64, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(start.Sub(t.epoch))})
	return id
}

// end closes a span now.
func (t *tracer) end(id int32) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int32, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a span whose interval is already known, such as the
// admission wait the engine reports after the fact.
func (t *tracer) add(name string, req int64, parent int32, start, end time.Time) {
	id := t.beginAt(name, req, parent, start)
	t.endAt(id, end)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap here: the benchmark calls
// layers one after another.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSums adds up self time and span counts per span name.
func layerSums(spans []span, self []time.Duration) (map[string]time.Duration, map[string]int) {
	sum, n := map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		n[s.Name]++
	}
	return sum, n
}

// coverage returns, per request rooted at a span named root, the share
// of the root's wall time that its descendants' self times account for:
// the layers must add up to what the client saw.
func coverage(spans []span, self []time.Duration, root string) []float64 {
	wall := map[int64]time.Duration{}
	covered := map[int64]time.Duration{}
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 {
			wall[s.Req] = s.dur()
		} else if s.Parent >= 0 {
			covered[s.Req] += self[i]
		}
	}
	out := make([]float64, 0, len(wall))
	for req, w := range wall {
		if w > 0 {
			out = append(out, float64(covered[req])/float64(w))
		}
	}
	return out
}

// spanPath names the span dump of one run.
func spanPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
