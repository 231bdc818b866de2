package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"github.com/flipper-mining/flipper/internal/service"
)

const (
	serveClients = 2
	// topK is the k of every anchored query; it exceeds the one planted
	// flip through each anchor.
	topK = 5
	// hitWindow bounds how far back a client reaches for a configuration to
	// resubmit: with 2 clients, fewer than 128 (the cache's default size)
	// results are stored in between, so a resubmission is always a hit.
	hitWindow = 16
	// digestOps is how many leading operation numbers the digest covers.
	digestOps = 24
)

// serveBench is serve-dense: two job-polling clients against one
// in-process flipperd with default options over the dense dataset.
type serveBench struct {
	e    *env
	dir  string
	ds   *service.Dataset
	srv  *service.Server
	ts   *httptest.Server
	c    *svcClient
	grid []gridPoint

	mu      sync.Mutex
	served  [][]served       // per client: fresh mines it may resubmit
	digests map[int64][]byte // operation number → scrubbed envelope
}

type served struct{ body, env []byte }

func setupServe(e *env, rep int, tr *tracer) (bench, error) {
	root := tr.root("setup")
	defer root.end()
	b := &serveBench{e: e, dir: filepath.Join(e.dir, fmt.Sprintf("serve-%d", rep)), grid: denseGrid(e.seed),
		served: make([][]served, serveClients), digests: map[int64][]byte{}}
	d, _, err := loadDense(root, b.dir, e.seed, 1)
	if err != nil {
		return nil, err
	}
	b.ds = d
	reg := service.NewRegistry()
	if err := reg.Add(d); err != nil {
		return nil, err
	}
	b.srv = service.NewServer(reg, service.Options{})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.c = newSvcClient(b.ts.URL, serveClients)

	// Warm the engine the jobs share: level views and counting state for a
	// full mine, and the item sketches for anchored queries.
	cfg, err := warmPoint.config(d)
	if err != nil {
		return nil, err
	}
	if _, err := d.Engine().Mine(cfg); err != nil {
		return nil, err
	}
	cfg.Anchor, cfg.AnchorTopK = planted[0][0], topK
	if _, err := d.Engine().Mine(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *serveBench) clients() int { return serveClients }

// op draws the operation kind from its number (see kindRank): 7 in 10 are
// fresh mines, 2 resubmit one of this client's earlier mines and 1 is an
// anchored top-K query.
func (b *serveBench) op(c int, seq int64, root active) (string, error) {
	r := kindRank(b.e.seed, seq)
	var class string
	var err error
	switch {
	case r < 7:
		class, err = "mine", b.mine(c, seq, root, true)
	case r < 9:
		if s, ok := b.pick(c, seq); ok {
			class, err = "hit", b.hit(root, s)
		} else {
			class, err = "mine", b.mine(c, seq, root, false)
		}
	default:
		class, err = "topk", b.topk(seq, root)
	}
	if errors.Is(err, errRefused) {
		b.e.s.add("service.refused", 1)
	}
	return class, err
}

func (b *serveBench) mine(c int, seq int64, root active, digest bool) error {
	body, err := submitBody(b.grid[seq%int64(len(b.grid))])
	if err != nil {
		return err
	}
	v, polls, err := b.c.submit(root, "service.submit", body)
	if err != nil {
		return err
	}
	if v.CacheHit {
		return wrong("fresh configuration answered from the cache")
	}
	r, err := decodeResult(v.Result)
	if err != nil {
		return err
	}
	if err := checkPlanted(r); err != nil {
		return err
	}
	env, err := scrub(v.Result)
	if err != nil {
		return err
	}
	b.e.s.add("service.cache_hit", 0)
	recordStats(b.e.s, r, len(v.Result))
	recordJob(b.e.s, v, polls)
	b.mu.Lock()
	b.served[c] = append(b.served[c], served{body, env})
	if digest && seq < digestOps {
		b.digests[seq] = env
	}
	b.mu.Unlock()
	return nil
}

// kindRank ranks operation seq's seeded draw among the draws of its block
// of ten consecutive operation numbers. Ranks 0-6 mine, 7-8 resubmit and 9
// queries, so every block holds exactly that mix in a seeded order, and a
// run's cost per operation does not wander with the share of cheap hits.
func kindRank(seed, seq int64) int {
	u, r := unit(seed, seq, "kind"), 0
	for j := seq - seq%10; j < seq-seq%10+10; j++ {
		if unit(seed, j, "kind") < u {
			r++
		}
	}
	return r
}

// pick chooses one of the client's last hitWindow fresh mines.
func (b *serveBench) pick(c int, seq int64) (served, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.served[c]
	if len(s) == 0 {
		return served{}, false
	}
	n := min(len(s), hitWindow)
	return s[len(s)-1-int(unit(b.e.seed, seq, "hit")*float64(n))], true
}

// hit resubmits a served configuration: the answer must come from the
// cache and match the mine that filled it.
func (b *serveBench) hit(root active, s served) error {
	v, _, err := b.c.submit(root, "service.resubmit", s.body)
	if err != nil {
		return err
	}
	if !v.CacheHit {
		return wrong("resubmission missed the cache")
	}
	env, err := scrub(v.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(env, s.env) {
		return wrong("cache hit differs from the mine that filled it")
	}
	b.e.s.add("service.cache_hit", 1)
	return nil
}

// topk asks for the top-K flips through one planted leaf, under a fresh
// grid configuration; the planted flip through that leaf must be among them.
func (b *serveBench) topk(seq int64, root active) error {
	pair := planted[int(unit(b.e.seed, seq, "pair")*float64(len(planted)))]
	anchor := pair[int(unit(b.e.seed, seq, "side")*2)]
	body, err := json.Marshal(map[string]any{"dataset": denseName, "anchor": anchor, "k": topK,
		"config": b.grid[seq%int64(len(b.grid))]})
	if err != nil {
		return err
	}
	v, err := b.c.call(root.child("service.topk"), http.MethodPost, "/v1/topk", body)
	if err != nil {
		return err
	}
	if v.Status != "done" {
		return fmt.Errorf("topk job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	if v.CacheHit {
		return wrong("fresh anchored query answered from the cache")
	}
	r, err := decodeResult(v.Result)
	if err != nil {
		return err
	}
	if !patternKeys(r)[plantedKey(pair)] {
		return wrong("planted flip %v missing from top-%d through %s", pair, topK, anchor)
	}
	env, err := scrub(v.Result)
	if err != nil {
		return err
	}
	b.e.s.add("service.cache_hit", 0)
	recordSketch(b.e.s, r)
	if seq < digestOps {
		b.mu.Lock()
		b.digests[seq] = env
		b.mu.Unlock()
	}
	return nil
}

func (b *serveBench) probe(tr *tracer) error {
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

func (b *serveBench) verify(*tracer) (int, error) { return 0, nil }

func (b *serveBench) provenance() map[string]any {
	return denseProvenance(b.ds, b.e.s, len(b.grid), map[string]any{
		"mix": "70% fresh mine, 20% cache-hit resubmission, 10% anchored top-K", "top_k": topK,
		"server": "default service.Options (2 queue workers, cache 128)", "poll_every_ms": ms(pollEvery),
	})
}

// digest hashes the scrubbed envelopes of the leading fresh mines and
// anchored queries, in operation order; resubmissions are left out because
// which earlier mine they repeat depends on timing.
func (b *serveBench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return digestMap(b.digests)
}

func (b *serveBench) close() {
	b.ts.Close()
	b.srv.Close()
	b.c.hc.CloseIdleConnections()
	os.RemoveAll(b.dir)
}
