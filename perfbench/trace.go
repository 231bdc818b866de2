package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Spans of one operation share Op; Parent
// is the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code with no spans.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	// current is the root span of the operation in flight. Layers that run
	// on server goroutines (cluster dispatch) attach to it; only workloads
	// with a single client rely on it.
	current atomic.Pointer[active]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// root opens the root span of a new operation.
func (t *tracer) root(name string) active {
	if t == nil {
		return active{}
	}
	id := t.ids.Add(1)
	return active{t: t, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span caused by a.
func (a active) child(name string) active { return a.t.childOf(a.op, a.id, name) }

// childOf opens a span of operation op caused by span parent, for layers
// that learn their parent from a request header.
func (t *tracer) childOf(op, parent int64, name string) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.ids.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

func (a active) end() { a.endBytes(0) }

// endBytes closes the span, recording n bytes moved by the call.
func (a active) endBytes(n int64) {
	if a.t == nil {
		return
	}
	a.t.record(span{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(time.Since(a.t.epoch)), Bytes: n,
	})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setCurrent publishes the operation root that server-side layers attach to.
func (t *tracer) setCurrent(a active) {
	if t != nil {
		t.current.Store(&a)
	}
}

// cur returns the operation root in flight, or an inert span.
func (t *tracer) cur() active {
	if t == nil {
		return active{}
	}
	if a := t.current.Load(); a != nil {
		return *a
	}
	return active{}
}

// ns converts a wall-clock instant to the tracer's time base.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
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

// layerStats aggregates spans per operation: for every span name, the
// summed self time (a span's duration minus the part of it that its child
// spans cover), the summed duration, the summed bytes and the call count.
type layerStats struct {
	self, total, bytes, calls map[int64]map[string]float64 // op → name → value
	durs                      map[string][]float64         // name → every span's duration (ms)
}

func aggregate(spans []span) layerStats {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ls := layerStats{
		self: map[int64]map[string]float64{}, total: map[int64]map[string]float64{},
		bytes: map[int64]map[string]float64{}, calls: map[int64]map[string]float64{},
		durs: map[string][]float64{},
	}
	add := func(m map[int64]map[string]float64, op int64, name string, v float64) {
		if m[op] == nil {
			m[op] = make(map[string]float64)
		}
		m[op][name] += v
	}
	for _, s := range spans {
		self := s.dur() - covered(s.Start, s.End, children[s.ID])
		add(ls.self, s.Op, s.Name, float64(self)/1e6)
		add(ls.total, s.Op, s.Name, float64(s.dur())/1e6)
		add(ls.bytes, s.Op, s.Name, float64(s.Bytes))
		add(ls.calls, s.Op, s.Name, 1)
		ls.durs[s.Name] = append(ls.durs[s.Name], float64(s.dur())/1e6)
	}
	return ls
}

// perOp returns, for every operation holding at least one span of the
// named layer, that layer's value from m.
func perOp(m map[int64]map[string]float64, name string) []float64 {
	var out []float64
	for _, byName := range m {
		if v, ok := byName[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// covered returns how much of [start, end) the union of the spans covers.
func covered(start, end int64, ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, start), min(s.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var tot, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			tot += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return tot + curB - curA
}
