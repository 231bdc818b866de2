package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/cluster"
	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/service"
)

const (
	clusterWorkers = 2
	clusterShards  = 2
	// spanHeader carries "op:span" from the coordinator's dispatch to the
	// worker, so the worker's span joins the operation that caused it.
	spanHeader = "X-Perfbench-Span"
)

// clusterBench is cluster-dense: one client against a coordinator flipperd
// whose mines fan their support counting out to two workers, each node an
// httptest server on loopback.
type clusterBench struct {
	e    *env
	dir  string
	ds   *service.Dataset
	srv  *service.Server
	ts   *httptest.Server
	c    *svcClient
	grid []gridPoint

	workers  []*httptest.Server
	dispatch *http.Transport
	beats    *http.Transport
	stop     context.CancelFunc
	hb       sync.WaitGroup
	events   *eventLog // the coordinator's dispatch trace; traced runs only

	mu         sync.Mutex
	done       []clusterOp
	probeDiffs int // jobs whose stats.probes_pruned differs from the local run's
}

// clusterOp is one finished distributed mine, kept for the comparison with
// a local engine after the measured window.
type clusterOp struct {
	seq               int64
	op                int64 // root span ID; 0 when untraced
	point             gridPoint
	env               []byte
	started, finished time.Time
}

func setupCluster(e *env, rep int, tr *tracer) (bench, error) {
	root := tr.root("setup")
	defer root.end()
	b := &clusterBench{e: e, dir: filepath.Join(e.dir, fmt.Sprintf("cluster-%d", rep)), grid: denseGrid(e.seed)}
	d, dbBytes, err := loadDense(root, b.dir, e.seed, clusterShards)
	if err != nil {
		return nil, err
	}
	b.ds = d
	reg := service.NewRegistry()
	if err := reg.Add(d); err != nil {
		return nil, err
	}
	cat := cluster.NewCatalog()
	cat.Add(denseName, d.Engine(), d.Tree, cluster.NewFingerprint(denseName, d.Src, d.Tree))
	b.dispatch = http.DefaultTransport.(*http.Transport).Clone()
	opts := cluster.Options{HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: &dispatchTransport{b.dispatch, tr}}}
	if tr != nil {
		b.events = &eventLog{}
		opts.TraceWriter = b.events
	}
	co := cluster.New(cat, opts)
	b.srv = service.NewServer(reg, service.Options{Coordinator: co})
	mux := http.NewServeMux()
	mux.Handle("/cluster/", co.Handler())
	mux.Handle("/", b.srv.Handler())
	b.ts = httptest.NewServer(mux)
	b.c = newSvcClient(b.ts.URL, 1)

	// Each worker loads the dataset files itself, as a separate flipperd
	// -worker process would, and registers through real heartbeats.
	ctx, stop := context.WithCancel(context.Background())
	b.stop = stop
	b.beats = http.DefaultTransport.(*http.Transport).Clone()
	beats := &http.Client{Timeout: 5 * time.Second, Transport: b.beats}
	for i := 0; i < clusterWorkers; i++ {
		tree, src, err := loadDataset(root, filepath.Join(b.dir, denseName), dbBytes)
		if err != nil {
			return nil, err
		}
		wcat := cluster.NewCatalog()
		wcat.Add(denseName, core.NewEngine(src, tree), tree, cluster.NewFingerprint(denseName, src, tree))
		w := cluster.NewWorker(fmt.Sprintf("worker-%d", i), wcat)
		ts := httptest.NewServer(&busyHandler{w.Handler(), tr})
		b.workers = append(b.workers, ts)
		b.hb.Add(1)
		go func() {
			defer b.hb.Done()
			w.HeartbeatLoop(ctx, b.ts.URL, ts.URL, time.Second, beats)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); co.Reachable() < clusterWorkers || !co.Eligible(denseName); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("workers did not register")
		}
		time.Sleep(time.Millisecond)
	}

	// One distributed mine warms the coordinator's search state and each
	// worker's shard views.
	body, err := submitBody(warmPoint)
	if err != nil {
		return nil, err
	}
	if _, _, err := b.c.submit(active{}, "service.submit", body); err != nil {
		return nil, fmt.Errorf("warm-up mine: %w", err)
	}
	return b, nil
}

func (b *clusterBench) clients() int { return 1 }

// op mines the next grid configuration through the coordinator; every op
// is a cache miss.
func (b *clusterBench) op(_ int, seq int64, root active) (string, error) {
	p := b.grid[seq%int64(len(b.grid))]
	body, err := submitBody(p)
	if err != nil {
		return "mine", err
	}
	v, polls, err := b.c.submit(root, "service.submit", body)
	if b.events != nil {
		events := b.events.drain()
		if root.t != nil {
			b.countEvents(events)
		}
	}
	if err != nil {
		return "mine", err
	}
	if v.CacheHit {
		return "mine", wrong("fresh configuration answered from the cache")
	}
	r, err := decodeResult(v.Result)
	if err != nil {
		return "mine", err
	}
	if err := checkPlanted(r); err != nil {
		return "mine", err
	}
	env, err := scrub(v.Result)
	if err != nil {
		return "mine", err
	}
	recordStats(b.e.s, r, len(v.Result))
	recordJob(b.e.s, v, polls)
	b.mu.Lock()
	b.done = append(b.done, clusterOp{seq: seq, op: root.op, point: p, env: env, started: *v.Started, finished: *v.Finished})
	b.mu.Unlock()
	return "mine", nil
}

// countEvents tallies one job's retries, hedges and degraded shards from
// the coordinator's dispatch trace.
func (b *clusterBench) countEvents(lines []byte) {
	degraded := 0.0
	for _, line := range bytes.Split(lines, []byte{'\n'}) {
		var ev struct {
			Event   string `json:"event"`
			Attempt int    `json:"attempt"`
		}
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		switch {
		case ev.Event == "dispatch" && ev.Attempt > 0:
			b.e.s.add("cluster.retries", 1)
		case ev.Event == "hedge":
			b.e.s.add("cluster.hedges", 1)
		case ev.Event == "degraded":
			degraded = 1
		}
	}
	b.e.s.add("cluster.degraded_jobs", degraded)
}

// verify compares every distributed envelope with a local warm engine's
// envelope for the same configuration, and derives the coordinator's own
// time per job from the traced dispatch spans.
//
// The envelopes must match byte for byte except stats.probes_pruned: that
// counter tallies trie probes the scan counter skipped, the scans run on
// the workers, and no worker reports it back, so a distributed envelope
// reads 0 there. The cluster's equivalence suite likewise pins patterns,
// not work counters. How many jobs differed there is printed in the
// provenance, so a fix shows.
func (b *clusterBench) verify(tr *tracer) (int, error) {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	// The local engine is safe for concurrent mines; two checkers use both
	// cores, so the comparison costs half the wall time.
	const checkers = 2
	var wg sync.WaitGroup
	var failed, probeDiffs atomic.Int64
	errs := make([]error, checkers)
	for c := 0; c < checkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(done); i += checkers {
				same, probesSame, err := b.matchesLocal(done[i])
				if err != nil {
					errs[c] = err
					return
				}
				if !probesSame {
					probeDiffs.Add(1)
				}
				if !same {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	b.probeDiffs = int(probeDiffs.Load())
	if tr == nil {
		return int(failed.Load()), nil
	}
	dispatches := map[int64][]span{}
	for _, s := range tr.snapshot() {
		if s.Name == "cluster.dispatch" {
			dispatches[s.Op] = append(dispatches[s.Op], s)
		}
	}
	for _, o := range done {
		if o.op == 0 {
			continue
		}
		a, z := tr.ns(o.started), tr.ns(o.finished)
		b.e.s.add("cluster.coordinator_self_ms", float64(z-a-covered(a, z, dispatches[o.op]))/1e6)
	}
	return int(failed.Load()), nil
}

// matchesLocal mines o's configuration on the coordinator's engine locally
// and compares the envelopes (see verify), also reporting whether
// stats.probes_pruned agreed.
func (b *clusterBench) matchesLocal(o clusterOp) (same, probesSame bool, err error) {
	cfg, err := o.point.config(b.ds)
	if err != nil {
		return false, false, err
	}
	res, err := b.ds.Engine().Mine(cfg)
	if err != nil {
		return false, false, err
	}
	raw, err := json.Marshal(res.JSON(b.ds.Tree))
	if err != nil {
		return false, false, err
	}
	want, err := scrub(raw)
	if err != nil {
		return false, false, err
	}
	want, local, err := cutStat(want, "probes_pruned")
	if err != nil {
		return false, false, err
	}
	got, remote, err := cutStat(o.env, "probes_pruned")
	if err != nil {
		return false, false, err
	}
	same = bytes.Equal(want, got)
	if !same {
		fmt.Fprintf(os.Stderr, "perfbench: operation %d: distributed envelope differs from the local one\nlocal:       %s\ndistributed: %s\n", o.seq, want, got)
	}
	return same, local == remote, nil
}

func (b *clusterBench) probe(tr *tracer) error {
	for i := int64(0); i < 3; i++ {
		cfg, err := b.grid[i].config(b.ds)
		if err != nil {
			return err
		}
		root := tr.root("probe")
		err = probeLayers(root, b.e.s, b.ds.Src, b.ds.Tree, cfg)
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *clusterBench) provenance() map[string]any {
	return denseProvenance(b.ds, b.e.s, len(b.grid), map[string]any{
		"workers": clusterWorkers, "shards": clusterShards, "poll_every_ms": ms(pollEvery),
		"checked_against_local": len(b.done), "probes_pruned_differs": b.probeDiffs,
	})
}

func (b *clusterBench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := map[int64][]byte{}
	for _, o := range b.done {
		if o.seq < digestOps {
			m[o.seq] = o.env
		}
	}
	return digestMap(m)
}

func (b *clusterBench) close() {
	b.srv.Close()
	b.stop()
	b.hb.Wait()
	b.ts.Close()
	for _, w := range b.workers {
		w.Close()
	}
	b.c.hc.CloseIdleConnections()
	b.dispatch.CloseIdleConnections()
	b.beats.CloseIdleConnections()
	os.RemoveAll(b.dir)
}

// dispatchTransport wraps the coordinator's HTTP client: each count
// request becomes a cluster.dispatch span from send until the response
// body is closed, carrying the request's size.
type dispatchTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *dispatchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.cur().child("cluster.dispatch")
	if sp.t == nil {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", sp.op, sp.id))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.endBytes(req.ContentLength)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, n: req.ContentLength}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   active
	n    int64
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.endBytes(b.n) })
	return err
}

// busyHandler wraps a worker's handler: each traced count request becomes
// a cluster.worker span, child of the dispatch that sent it, carrying the
// response size.
type busyHandler struct {
	h  http.Handler
	tr *tracer
}

func (b *busyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var op, parent int64
	if b.tr == nil {
		b.h.ServeHTTP(w, r)
		return
	}
	if n, _ := fmt.Sscanf(r.Header.Get(spanHeader), "%d:%d", &op, &parent); n != 2 {
		b.h.ServeHTTP(w, r)
		return
	}
	sp := b.tr.childOf(op, parent, "cluster.worker")
	cw := &countingWriter{ResponseWriter: w}
	b.h.ServeHTTP(cw, r)
	sp.endBytes(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// eventLog is the in-memory TraceWriter the coordinator writes its JSON
// dispatch events to.
type eventLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// drain returns and clears the events written so far.
func (l *eventLog) drain() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := bytes.Clone(l.buf.Bytes())
	l.buf.Reset()
	return out
}

// cutStat removes stats.<key> from a result envelope and returns the rest
// re-encoded, with the removed value.
func cutStat(env []byte, key string) ([]byte, float64, error) {
	var doc map[string]any
	if err := json.Unmarshal(env, &doc); err != nil {
		return nil, 0, err
	}
	stats, _ := doc["stats"].(map[string]any)
	val, _ := stats[key].(float64)
	delete(stats, key)
	out, err := json.Marshal(doc)
	return out, val, err
}
