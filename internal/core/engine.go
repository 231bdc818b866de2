package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/candtrie"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/sketch"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Result carries the patterns and counters of one mining run.
type Result struct {
	// Patterns holds every flipping pattern, deterministically ordered (by
	// size then leaf items), or the top-K by gap when Config.TopK is set.
	Patterns []Pattern
	// Stats aggregates cost counters (scans, candidates, memory peaks).
	Stats Stats
}

// Engine mines one source/taxonomy pair repeatedly, caching everything that
// depends only on the dataset — materialized level views, deduplicated
// weighted transactions in flat scan arenas, and the lazily built tid
// lists and bitmap indexes, all kept per transaction shard (an unsharded
// dataset is one shard) — across Mine calls, plus a pool of per-run
// scratch (candidate stores, counting buffers, chain arenas) so repeated
// runs stop paying full allocation.
//
// Cached state is keyed by the parts of the configuration that shape it
// (Materialize and the resolved shard count); every other knob varies freely
// across calls over the same caches. All methods are safe for concurrent
// use: dataset state is built once and read-only afterwards, and each run
// checks scratch out of the pool for exclusive use.
//
// A warm run is byte-identical to a cold one: pattern bytes trivially so,
// and the cost-model decisions and stats (db_scans, bitmap_builds,
// bitmap_word_ops, …) because the miner accounts index builds and init
// passes logically per run, whether or not the cache already held them.
type Engine struct {
	src  txdb.Source
	tree *taxonomy.Tree

	mu         sync.Mutex
	data       map[dataKey]*dataState
	scratch    []*runScratch // LIFO so the warmest arenas are reused first
	sketchPath string        // optional on-disk sketch cache (SetSketchPath)
}

// SetSketchPath points the engine at an on-disk cache for the anchored-search
// item sketches. When set, an anchored run first tries to load the file
// (validated by signature size and a dataset fingerprint, so a stale or
// foreign file is rebuilt, never trusted) and saves freshly built sketches
// back, best-effort, for the next engine over the same dataset.
func (e *Engine) SetSketchPath(path string) {
	e.mu.Lock()
	e.sketchPath = path
	e.mu.Unlock()
}

func (e *Engine) sketchFile() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sketchPath
}

// NewEngine returns an engine over the source and taxonomy. The source and
// tree must not be mutated while the engine is in use — cached level views
// and indexes alias their storage.
func NewEngine(src txdb.Source, tree *taxonomy.Tree) *Engine {
	return &Engine{src: src, tree: tree, data: make(map[dataKey]*dataState)}
}

// dataKey identifies one cached dataset representation: whether level views
// are materialized, and how many transaction shards counting fans out over
// (1 when unsharded, so Config.Shards 0 and 1 share one representation).
type dataKey struct {
	materialize bool
	shards      int
}

// dataState is the dataset-derived state of one (materialize, shards)
// representation. The base fields are built once under buildMu — a build
// abandoned by a cancelled run leaves built unset, so the next run rebuilds
// — and are read-only afterwards; the tid lists and bitmap indexes build
// lazily under mu on first use by any run and are then shared read-only.
type dataState struct {
	buildMu sync.Mutex
	built   bool
	err     error // the completed build's error, returned to every run

	shards []txdb.Source // resolved shard sources; one when unsharded

	levels [][]shardLevel         // [level][shard]; nil when streaming
	sup1   []map[itemset.ID]int64 // all single supports per level
	widths []int                  // max generalized width per level

	mu       sync.Mutex          // guards the lazy index builds in levels
	sketches map[int]*sketch.Set // anchored-search sketches by signature size
}

// shardLevel is one shard's share of one materialized level: its
// generalized transactions (which the tid lists index), the flat scan
// arena of their deduplicated weighted form (which the scan kernel walks
// and the bitmap index is built from), and the two lazily built indexes.
type shardLevel struct {
	view *txdb.LevelView
	flat flatLevel
	tid  map[itemset.ID][]int32
	bm   *bitmap.Index
}

func (ds *dataState) sharded() bool { return len(ds.shards) > 1 }

// resolveShardSources decides a run's shard layout. A ShardedSource brings
// its own shards (its on-disk partitioning is authoritative); otherwise
// cfgShards > 1 partitions an in-memory database in place. Any other
// source — e.g. a single FileSource, which cannot be split without
// rewriting the file — is its own single shard regardless of
// Config.Shards.
func resolveShardSources(src txdb.Source, cfgShards int) []txdb.Source {
	if ss, ok := src.(*txdb.ShardedSource); ok && ss.NumShards() > 1 {
		return ss.Shards()
	}
	if db, ok := src.(*txdb.DB); ok && cfgShards > 1 {
		if parts := txdb.Partition(db, cfgShards); len(parts) > 1 {
			shards := make([]txdb.Source, len(parts))
			for i, p := range parts {
				shards[i] = p
			}
			return shards
		}
	}
	return []txdb.Source{src}
}

// boundWorkers bounds a fan-out over n units at the configured
// parallelism: at most cfg.workers() goroutines, at least one.
func boundWorkers(cfg *Config, n int) int {
	return max(1, min(cfg.workers(), n))
}

// dataFor resolves (building at most once) the dataset state a run over cfg
// needs. The build observes ctx: a cancelled build is reported as the
// run's abort and not cached, so a later run — or a concurrent one that
// was waiting on it — builds afresh instead of inheriting the cancellation.
func (e *Engine) dataFor(ctx context.Context, cfg Config) (*dataState, error) {
	shards := resolveShardSources(e.src, cfg.Shards)
	key := dataKey{materialize: cfg.Materialize, shards: len(shards)}
	e.mu.Lock()
	ds := e.data[key]
	if ds == nil {
		ds = &dataState{shards: shards}
		e.data[key] = ds
	}
	e.mu.Unlock()
	ds.buildMu.Lock()
	defer ds.buildMu.Unlock()
	if !ds.built {
		err := ds.build(ctx, e.tree, cfg)
		if err != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("core: mine aborted: %w", ctx.Err())
		}
		ds.built, ds.err = true, err
	}
	return ds, ds.err
}

// build materializes every shard's level views — all levels of a shard in
// one pass, the shards concurrently over a bounded worker pool, then each
// level's per-shard dedup and flat arena the same way — or, for the
// streaming representation, runs the single-support pass. Parallelism of
// the build follows the triggering run's configuration; the built state is
// identical either way. The materializing scans, the per-level dedup and
// the streaming pass observe ctx.
func (ds *dataState) build(ctx context.Context, tax *taxonomy.Tree, cfg Config) error {
	H := tax.Height()
	workers := boundWorkers(&cfg, len(ds.shards))
	if !cfg.Materialize {
		return ds.streamSingleSupports(ctx, tax, workers)
	}
	shardViews, err := txdb.MaterializeShards(ctx, ds.shards, tax, workers)
	if err != nil {
		return err
	}
	ds.levels = make([][]shardLevel, H+1)
	ds.sup1 = make([]map[itemset.ID]int64, H+1)
	ds.widths = make([]int, H+1)
	for h := 1; h <= H; h++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lv := make([]shardLevel, len(shardViews))
		txdb.ForEachShard(workers, len(lv), func(_, s int) {
			view := shardViews[s][h]
			lv[s] = shardLevel{view: view, flat: flatten(view.Dedup())}
		})
		ds.levels[h] = lv
		// The shards' per-item supports sum — and their widths max — to
		// exactly the unsharded view's values, because generalization is
		// per-transaction; a lone shard's map is the level's as is.
		sup, width := lv[0].view.Support, lv[0].view.MaxWidth
		if len(lv) > 1 {
			sup = make(map[itemset.ID]int64)
			for _, l := range lv {
				width = max(width, l.view.MaxWidth)
				for id, n := range l.view.Support {
					sup[id] += n
				}
			}
		}
		ds.sup1[h], ds.widths[h] = sup, width
	}
	return nil
}

// streamSingleSupports is the streaming init: one pass over every shard,
// a bounded worker pool scanning the shards concurrently, each worker
// aggregating per-level single supports and widths across its shards
// locally. Integer sums and maxima make the merged aggregates independent
// of the shard layout and worker assignment. The callback polls ctx every
// 1024 transactions, so a cancelled build stops within that many.
func (ds *dataState) streamSingleSupports(ctx context.Context, tax *taxonomy.Tree, workers int) error {
	H := tax.Height()
	type agg struct {
		sup    []map[itemset.ID]int64
		widths []int
		err    error
	}
	aggs := make([]agg, workers)
	for w := range aggs {
		aggs[w].sup = make([]map[itemset.ID]int64, H+1)
		aggs[w].widths = make([]int, H+1)
		for h := 1; h <= H; h++ {
			aggs[w].sup[h] = make(map[itemset.ID]int64)
		}
	}
	txdb.ForEachShard(workers, len(ds.shards), func(w, s int) {
		a := &aggs[w]
		if a.err != nil {
			return
		}
		buf := make([]itemset.ID, 0, 32)
		seen := 0
		a.err = ds.shards[s].Scan(func(tx itemset.Set) error {
			if seen++; seen&1023 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			for h := 1; h <= H; h++ {
				buf = buf[:0]
				for _, id := range tx {
					if anc, ok := tax.AncestorAt(id, h); ok {
						buf = append(buf, anc)
					}
				}
				g := itemset.Canon(buf)
				a.widths[h] = max(a.widths[h], len(g))
				for _, id := range g {
					a.sup[h][id]++
				}
			}
			return nil
		})
	})
	for _, a := range aggs {
		if a.err != nil {
			return a.err
		}
	}
	ds.sup1, ds.widths = aggs[0].sup, aggs[0].widths
	for _, a := range aggs[1:] {
		for h := 1; h <= H; h++ {
			ds.widths[h] = max(ds.widths[h], a.widths[h])
			for id, n := range a.sup[h] {
				ds.sup1[h][id] += n
			}
		}
	}
	return nil
}

// initScans is the number of database passes the init of this
// representation logically costs a run — one materialization pass per level,
// or one streaming single-support pass. Charged per run whether or not the
// cache already held the state, so warm stats match cold ones byte for byte.
func initScans(cfg *Config, height int) int64 {
	if cfg.Materialize {
		return int64(height)
	}
	return 1
}

// flatLevel is the cache-blocked scan layout of one level's deduplicated
// weighted transactions: every itemset concatenated into one contiguous
// arena with parallel start offsets and weights. The scan counter walks the
// arena sequentially, so a block of transactions streams through L1/L2
// while the candidate trie's CSR slabs stay resident — no per-transaction
// pointer chasing into view storage.
type flatLevel struct {
	items   []itemset.ID
	starts  []int32 // len = n()+1; tx t is items[starts[t]:starts[t+1]]
	weights []int64
}

func (f *flatLevel) n() int { return len(f.weights) }

func flatten(dist []txdb.WeightedTx) flatLevel {
	total := 0
	for _, wt := range dist {
		total += len(wt.Items)
	}
	f := flatLevel{
		items:   make([]itemset.ID, 0, total),
		starts:  make([]int32, 1, len(dist)+1),
		weights: make([]int64, 0, len(dist)),
	}
	for _, wt := range dist {
		f.items = append(f.items, wt.Items...)
		f.starts = append(f.starts, int32(len(f.items)))
		f.weights = append(f.weights, wt.Weight)
	}
	return f
}

// runScratch is the reusable per-run arena set. One run checks it out of
// the engine pool for exclusive use; everything in it is either overwritten
// or explicitly cleared before reuse.
type runScratch struct {
	cells    map[int][]*cell // retired cells by k, stores Reset and reusable
	chains   []chainRec      // chain arena backing
	chainIDs []itemset.ID    // chain item arena backing
	sups     []int64         // finishCell single-support scratch
	partials [][]int64       // per-worker counting buffers, zeroed on checkout
	vecs     [][]bitmap.Vector
	tidScr   []tidScratch
	cand     []itemset.ID // candidate canonicalization buffer
}

func (e *Engine) getScratch() *runScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.scratch); n > 0 {
		sc := e.scratch[n-1]
		e.scratch = e.scratch[:n-1]
		return sc
	}
	return &runScratch{cells: make(map[int][]*cell)}
}

func (e *Engine) putScratch(sc *runScratch) {
	e.mu.Lock()
	e.scratch = append(e.scratch, sc)
	e.mu.Unlock()
}

// supsFor returns a length-k int64 scratch (contents unspecified).
func (sc *runScratch) supsFor(k int) []int64 {
	if cap(sc.sups) < k {
		sc.sups = make([]int64, k)
	}
	return sc.sups[:k]
}

// candFor returns a length-k item scratch (contents unspecified).
func (sc *runScratch) candFor(k int) []itemset.ID {
	if cap(sc.cand) < k {
		sc.cand = make([]itemset.ID, k)
	}
	return sc.cand[:k]
}

// partialsFor returns `workers` zeroed counting vectors of length n each.
func (sc *runScratch) partialsFor(workers, n int) [][]int64 {
	for len(sc.partials) < workers {
		sc.partials = append(sc.partials, nil)
	}
	out := sc.partials[:workers]
	for w := range out {
		if cap(out[w]) < n {
			out[w] = make([]int64, n)
		} else {
			out[w] = out[w][:n]
			clear(out[w])
		}
	}
	return out
}

// vecsFor returns `workers` vector-header scratches of length k each.
func (sc *runScratch) vecsFor(workers, k int) [][]bitmap.Vector {
	for len(sc.vecs) < workers {
		sc.vecs = append(sc.vecs, nil)
	}
	out := sc.vecs[:workers]
	for w := range out {
		if cap(out[w]) < k {
			out[w] = make([]bitmap.Vector, k)
		}
		out[w] = out[w][:k]
	}
	return out
}

// tidScratchFor returns `workers` tid-list intersection scratches.
func (sc *runScratch) tidScratchFor(workers int) []tidScratch {
	for len(sc.tidScr) < workers {
		sc.tidScr = append(sc.tidScr, tidScratch{})
	}
	return sc.tidScr[:workers]
}

// entryMeta is the engine-side metadata of one candidate slab entry. Items
// and supports live in the cell's candtrie.Store; this parallel slab holds
// what labeling and chain linking add on top. Chain references are indexes
// into the miner's chain arena, never pointers into other cells, so freeing
// a row releases its slabs wholesale.
type entryMeta struct {
	corr        float64
	parentChain int32 // chain-arena index of the alive parent; -1 in row 1
	chain       int32 // chain-arena index once this entry is alive; -1
	label       Label
	parentLabel Label // label of the parent entry at generation time
	alive       bool
	infrequent  bool // counted, sup < θ_h; retained for subset checks only
}

// cell is one Q(h,k) of the table M: the counted k-itemsets at level h.
// Candidates live in a trie-indexed slab store with a parallel metadata
// slab; membership, subset checks and scan counting all go through the trie
// (no key strings, no map probes).
type cell struct {
	h, k       int
	store      *candtrie.Store
	meta       []entryMeta
	candidates int
	frequent   int
	positive   int
	negative   int
	alive      int
}

func newCell(h, k int) *cell {
	return &cell{h: h, k: k, store: candtrie.New(k)}
}

// cell checks a pooled cell out of the run scratch (store slabs retained
// from earlier rows or runs) or allocates a fresh one.
func (m *miner) cell(h, k int) *cell {
	if list := m.sc.cells[k]; len(list) > 0 {
		c := list[len(list)-1]
		m.sc.cells[k] = list[:len(list)-1]
		c.h, c.k = h, k
		c.meta = c.meta[:0]
		c.candidates, c.frequent, c.positive, c.negative, c.alive = 0, 0, 0, 0, 0
		return c
	}
	return newCell(h, k)
}

// retireCell resets a cell's store and returns it to the run scratch for
// reuse by a later row or run. Callers must be done with every alias into
// the store's arenas.
func (m *miner) retireCell(c *cell) {
	c.store.Reset()
	m.sc.cells[c.k] = append(m.sc.cells[c.k], c)
}

// chainRec is one link of a flipping chain in the miner's chain arena. When
// an entry turns out alive, its level info is copied here (items into the
// chain item arena, at chainIDs[lo:hi]), so pattern assembly never needs a
// freed row's slab.
type chainRec struct {
	lo, hi int32
	sup    int64
	corr   float64
	label  Label
	parent int32 // chain-arena index of the level-(h-1) link; -1 at level 1
}

// miner holds the state of one run: the configuration-dependent level
// summaries (frequent items, thresholds, SIBP state), the live rows of the
// search table, the chain arena, and the run's stats. Dataset-derived state
// is read through m.ds; reusable arenas through m.sc.
type miner struct {
	cfg    Config
	tax    *taxonomy.Tree
	src    txdb.Source
	height int
	n      int
	minSup []int64 // absolute, indexed by level (0 unused)

	eng *Engine
	ds  *dataState
	sc  *runScratch

	freq1  []map[itemset.ID]int64 // frequent single supports per level
	sorted [][]itemset.ID         // frequent items per level, ascending support (SIBP)

	// bmBuilt marks levels whose bitmap indexes this run has logically
	// built. The engine may serve a cached index, but the cost model and
	// Stats.BitmapBuilds follow these per-run flags, so a warm run chooses
	// the same strategies and reports the same stats as a cold one.
	bmBuilt []bool

	rows     []map[int]*cell       // rows[h][k]
	excluded []map[itemset.ID]bool // SIBP-excluded items per level
	rset     []map[itemset.ID]bool // R_h of the most recent column per level
	rsetCol  []int                 // column the R set belongs to

	// chains is the chain arena: one record per alive entry, linked upward
	// by index, its items in chainIDs. It is the only candidate state that
	// outlives freeRow.
	chains   []chainRec
	chainIDs []itemset.ID

	stats Stats
	maxK  int

	// done is the run context's cancellation channel (nil when the run is
	// not cancellable, e.g. plain Mine). The mining loops poll it between
	// cells and the counting backends poll it at block granularity, so a
	// cancelled run unwinds within a bounded amount of counting work; an
	// uncancellable run pays one nil check per poll.
	done <-chan struct{}

	// ctx is the run's context; counting delegated over the network needs
	// the context itself, not just its done channel. Background for plain
	// Mine.
	ctx context.Context

	// remote, when set, replaces every local counting backend: count hands
	// each cell's candidates to it and trusts the returned totals
	// (MineRemote). Errors park in scanErr like streaming scan failures.
	remote CellCounter

	// scanErr records the first streaming counting-pass failure (the
	// materialized paths surface errors at init instead). Counting cannot
	// return errors through the mining loop, so the streaming backends park
	// the failure here, later passes short-circuit on it, and Mine fails
	// with it rather than returning silently undercounted patterns.
	scanErr error
}

// Mine runs the Flipper algorithm (or the BASIC baseline, depending on
// cfg.Pruning) over src with the given taxonomy.
//
// The taxonomy must offer a generalization at every level for every leaf:
// either it is balanced, or it was extended with taxonomy.Tree.Extend
// (the paper's Figure 3 variant B) or truncated to uniform levels.
//
// Mine builds a single-use Engine; callers mining the same dataset
// repeatedly should hold one Engine and call its Mine method, which reuses
// level views, bitmap indexes and counting arenas across runs.
func Mine(src txdb.Source, tree *taxonomy.Tree, cfg Config) (*Result, error) {
	return (&Engine{src: src, tree: tree, data: make(map[dataKey]*dataState)}).Mine(cfg)
}

// MineContext is Mine with a cancellable context; see Engine.MineContext for
// the cancellation contract.
func MineContext(ctx context.Context, src txdb.Source, tree *taxonomy.Tree, cfg Config) (*Result, error) {
	return (&Engine{src: src, tree: tree, data: make(map[dataKey]*dataState)}).MineContext(ctx, cfg)
}

// Mine runs one mining pass over the engine's dataset, reusing every cached
// representation and pooled arena a previous run left behind. Safe for
// concurrent use; the result is byte-identical to a cold Mine.
func (e *Engine) Mine(cfg Config) (*Result, error) {
	return e.MineContext(context.Background(), cfg)
}

// errCancelled is the sentinel a cancelled run's streaming scan callbacks
// abort their pass with; MineContext reports ctx.Err() instead, so the
// sentinel never escapes.
var errCancelled = fmt.Errorf("core: run cancelled")

// MineContext is Mine under a context: when ctx is cancelled or its deadline
// passes, the run stops at the next cancellation checkpoint — the mining
// loops check between cells and every counting backend checks at block
// granularity inside its worker loops — and returns an error wrapping
// ctx.Err(). No partial Result is ever returned. Checkpoints are polls of
// the context's done channel, so an uncancellable context (e.g.
// context.Background, which plain Mine uses) costs one nil check per poll
// and the hot counting loops stay unaffected.
//
// The dataset-state build (level views, dedup, single supports) observes
// cancellation too: a run cancelled mid-build abandons it without caching
// anything, and the next run on the engine — including one that was
// waiting on the abandoned build — builds afresh. The lazily built counting
// indexes, shared across concurrent runs, are not cancellable.
func (e *Engine) MineContext(ctx context.Context, cfg Config) (*Result, error) {
	return e.mineContext(ctx, cfg, nil)
}

// mineContext is the shared run body of MineContext and MineRemote: one
// mining pass under ctx, counting locally or through remote.
func (e *Engine) mineContext(ctx context.Context, cfg Config, remote CellCounter) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: mine aborted: %w", err)
	}
	if e.tree == nil {
		return nil, fmt.Errorf("core: nil taxonomy")
	}
	if !e.tree.IsBalanced() && !e.tree.Extended() {
		return nil, fmt.Errorf("core: taxonomy is unbalanced; call Extend (variant B) or Truncate (variant A) first")
	}
	minSup, err := cfg.validate(e.tree.Height(), e.src.Len())
	if err != nil {
		return nil, err
	}
	m := &miner{
		cfg:    cfg,
		tax:    e.tree,
		src:    e.src,
		height: e.tree.Height(),
		n:      e.src.Len(),
		minSup: minSup,
		done:   ctx.Done(),
		ctx:    ctx,
		remote: remote,
	}
	if err := m.bind(e); err != nil {
		return nil, err
	}
	defer m.release()

	var patterns []Pattern
	switch {
	case cfg.Anchor != "":
		patterns, err = m.mineAnchored()
		if err != nil {
			return nil, err
		}
	case cfg.Pruning == Basic:
		patterns = m.mineBasic()
	default:
		patterns = m.mineFlipper()
	}
	if err := ctx.Err(); err != nil {
		// Cancellation wins over any scan abort it caused: the caller sees
		// the context error, never the internal sentinel.
		return nil, fmt.Errorf("core: mine aborted: %w", err)
	}
	if m.scanErr != nil {
		return nil, fmt.Errorf("core: streaming counting pass failed: %w", m.scanErr)
	}
	switch {
	case cfg.Anchor != "":
		// mineAnchored already ranked by gap and truncated to AnchorTopK.
	case cfg.TopK > 0:
		sortPatternsByGap(patterns)
		if len(patterns) > cfg.TopK {
			patterns = patterns[:cfg.TopK]
		}
	default:
		sortPatterns(patterns)
	}
	m.stats.Elapsed = time.Since(start)
	return &Result{Patterns: patterns, Stats: m.stats}, nil
}

// init binds the miner to a fresh single-use engine — the compatibility
// path for directly constructed miners (tests build them by hand);
// Engine.Mine binds against the shared engine instead.
func (m *miner) init() error {
	return m.bind(NewEngine(m.src, m.tax))
}

// bind attaches the miner to an engine: resolves (building if needed) the
// dataset state for its configuration, checks scratch out of the pool, and
// computes the per-run level summaries and logical init accounting.
func (m *miner) bind(e *Engine) error {
	ctx := m.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Resolve the worker count once, so every pass of the run sizes its
	// work units, pool and per-worker scratch from the same value even if
	// GOMAXPROCS changes mid-run.
	m.cfg.Parallelism = m.cfg.workers()
	ds, err := e.dataFor(ctx, m.cfg)
	if err != nil {
		return err
	}
	m.eng = e
	m.ds = ds
	m.sc = e.getScratch()
	m.chains = m.sc.chains[:0]
	m.chainIDs = m.sc.chainIDs[:0]

	H := m.height
	m.freq1 = make([]map[itemset.ID]int64, H+1)
	m.sorted = make([][]itemset.ID, H+1)
	m.bmBuilt = make([]bool, H+1)
	m.rows = make([]map[int]*cell, H+1)
	m.excluded = make([]map[itemset.ID]bool, H+1)
	m.rset = make([]map[itemset.ID]bool, H+1)
	m.rsetCol = make([]int, H+1)
	for h := 1; h <= H; h++ {
		m.rows[h] = make(map[int]*cell)
		m.excluded[h] = make(map[itemset.ID]bool)
	}
	m.stats.Shards = len(ds.shards)
	m.stats.DBScans += initScans(&m.cfg, H)

	for h := 1; h <= H; h++ {
		freq := make(map[itemset.ID]int64)
		for id, sup := range ds.sup1[h] {
			if sup >= m.minSup[h] {
				freq[id] = sup
			}
		}
		m.freq1[h] = freq
		items := make([]itemset.ID, 0, len(freq))
		for id := range freq {
			items = append(items, id)
		}
		sort.Slice(items, func(i, j int) bool {
			si, sj := freq[items[i]], freq[items[j]]
			if si != sj {
				return si < sj
			}
			return items[i] < items[j]
		})
		m.sorted[h] = items
	}

	// Column bound K: itemsets wider than any transaction at a level cannot
	// be frequent there; flipping chains need every level, so the minimum
	// width over the levels bounds the whole table. The level-1 fanout and
	// MaxK bound it further.
	K := ds.widths[1]
	for h := 2; h <= H; h++ {
		if ds.widths[h] < K {
			K = ds.widths[h]
		}
	}
	if f := len(m.freq1[1]); f < K {
		K = f
	}
	if m.cfg.MaxK > 0 && m.cfg.MaxK < K {
		K = m.cfg.MaxK
	}
	m.maxK = K

	m.stats.Transactions = m.n
	m.stats.Height = H
	m.stats.MaxK = K
	return nil
}

// release retires every still-live cell into the scratch pool and returns
// the scratch to the engine. Patterns never alias cell or chain storage —
// collect copies pattern items out of the chain item arena and collectBasic
// clones what it exports — so the arenas are free for the next run the
// moment mining ends.
func (m *miner) release() {
	for h := range m.rows {
		for _, c := range m.rows[h] {
			m.retireCell(c)
		}
		m.rows[h] = nil
	}
	sc := m.sc
	sc.chains = m.chains[:0]
	sc.chainIDs = m.chainIDs[:0]
	m.sc = nil
	m.eng.putScratch(sc)
}

// canceled is the shared cancellation checkpoint: one nil check when the run
// has no cancellable context, one non-blocking channel poll otherwise.
// Counting workers call it with the miner's done channel at block
// granularity, so the per-element hot loops never pay for it.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelled is the single-goroutine checkpoint of the mining loops.
func (m *miner) cancelled() bool { return canceled(m.done) }

// mineFlipper is Algorithm 1: zigzag over rows 1–2, then row-wise descent,
// with flipping gating and (by pruning level) TPG and SIBP.
func (m *miner) mineFlipper() []Pattern {
	H := m.height
	// Rows 1 and 2, zigzag: Q(1,k) then Q(2,k) for growing k.
	for k := 2; k <= m.maxK; k++ {
		if m.cancelled() {
			return nil
		}
		c1 := m.row1Cell(k)
		m.finishCell(c1)
		m.rows[1][k] = c1
		c2 := m.childCell(2, k)
		m.finishCell(c2)
		m.rows[2][k] = c2
		if m.cfg.Pruning.usesSIBP() {
			m.sibpUpdate(1, k, c1)
			m.sibpUpdate(2, k, c2)
			m.sibpExclude(2, k)
		}
		if c1.candidates == 0 {
			break // row 1 exhausted; nothing can grow to the right
		}
		if m.tpg(c1, c2) {
			break
		}
	}
	// Rows 3..H, one row at a time.
	for h := 3; h <= H; h++ {
		for k := 2; k <= m.maxK; k++ {
			if m.cancelled() {
				return nil
			}
			parent := m.rows[h-1][k]
			if parent == nil {
				break // the row above stopped before this column
			}
			c := m.childCell(h, k)
			m.finishCell(c)
			m.rows[h][k] = c
			if m.cfg.Pruning.usesSIBP() {
				m.sibpUpdate(h, k, c)
				m.sibpExclude(h, k)
			}
			if m.tpg(parent, c) {
				break
			}
		}
		// "Eliminate non-flipping patterns in rows h-1 and h": everything
		// two rows up can no longer influence generation; free it.
		m.freeRow(h - 2)
	}
	return m.collect()
}

// tpg applies the Theorem-3 check to two vertically consecutive cells. To
// avoid firing on cells that are empty only because of vertical gating (see
// DESIGN.md), it requires at least one frequent itemset across the pair.
func (m *miner) tpg(up, down *cell) bool {
	if !m.cfg.Pruning.usesTPG() {
		return false
	}
	if up.frequent == 0 && down.frequent == 0 {
		return false
	}
	if up.positive == 0 && down.positive == 0 {
		m.stats.TPGBreaks++
		return true
	}
	return false
}

// finishCell counts a cell's candidates, labels the frequent ones, links
// chain liveness into the chain arena, and marks infrequent candidates
// (their items stay in the slab for Apriori subset checks until the row is
// freed, but they leave the resident-candidate metric immediately).
func (m *miner) finishCell(c *cell) {
	if c.candidates > 0 {
		m.count(c)
	}
	thr := m.minSup[c.h]
	sup1 := m.ds.sup1[c.h]
	sups := m.sc.supsFor(c.k)
	for i := range c.meta {
		e := &c.meta[i]
		sup := c.store.Sup[i]
		if sup < thr {
			e.infrequent = true
			m.stats.dropResident(1, c.k)
			continue
		}
		items := c.store.Items(int32(i))
		c.frequent++
		m.stats.FrequentItemsets++
		for j, id := range items {
			sups[j] = sup1[id]
		}
		e.corr = m.cfg.Measure.Corr(sup, sups)
		switch {
		case e.corr >= m.cfg.Gamma:
			e.label = LabelPositive
			c.positive++
			m.stats.PositiveItemsets++
		case e.corr <= m.cfg.Epsilon:
			e.label = LabelNegative
			c.negative++
			m.stats.NegativeItemsets++
		}
		if c.h == 1 {
			e.alive = e.label.Labeled()
		} else {
			// childCell only expands alive parents, so parentChain ≥ 0 holds
			// for every generated candidate; the check guards hand-built cells.
			e.alive = e.label.Labeled() && e.parentChain >= 0 && e.label.Flips(e.parentLabel)
		}
		if e.alive {
			c.alive++
			m.stats.AliveItemsets++
			e.chain = int32(len(m.chains))
			lo := int32(len(m.chainIDs))
			m.chainIDs = append(m.chainIDs, items...)
			m.chains = append(m.chains, chainRec{
				lo:     lo,
				hi:     int32(len(m.chainIDs)),
				sup:    sup,
				corr:   e.corr,
				label:  e.label,
				parent: e.parentChain,
			})
		}
	}
	if m.cfg.KeepCellStats {
		m.stats.Cells = append(m.stats.Cells, CellStat{
			H: c.h, K: c.k, Candidates: c.candidates,
			Frequent: c.frequent, Positive: c.positive, Negative: c.negative, Alive: c.alive,
		})
	}
}

// freeRow releases the cells of a completed row. Because chain links live in
// the miner's chain arena (alive entries copy their level info there as they
// are labeled), dropping the row's cells frees the candidate slabs — item
// arena, support slice, trie nodes, metadata — wholesale, with no per-entry
// bookkeeping; the slabs go back to the scratch pool for the next row.
// This is the paper's memory story for Figure 9(b): only alive chain links
// outlive their row.
func (m *miner) freeRow(h int) {
	if h < 1 || m.rows[h] == nil {
		return
	}
	for _, c := range m.rows[h] {
		m.stats.dropResident(c.frequent, c.k)
		m.retireCell(c)
	}
	m.rows[h] = nil
}

// collect assembles patterns from alive entries of the leaf row. Their
// itemsets are copied out of the pooled chain item arena into one
// allocation the result owns.
func (m *miner) collect() []Pattern {
	leafRow := m.rows[m.height]
	if leafRow == nil {
		return nil
	}
	var leaves []int32
	size := 0
	for _, c := range leafRow {
		for i := range c.meta {
			if !c.meta[i].alive {
				continue
			}
			leaves = append(leaves, c.meta[i].chain)
			for cur := c.meta[i].chain; cur >= 0; cur = m.chains[cur].parent {
				size += int(m.chains[cur].hi - m.chains[cur].lo)
			}
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	ids := make([]itemset.ID, 0, size)
	out := make([]Pattern, 0, len(leaves))
	for _, ci := range leaves {
		out = append(out, m.assemble(ci, &ids))
	}
	return out
}

// assemble walks a leaf entry's chain-arena links into a Pattern, copying
// each link's items onto the end of ids.
func (m *miner) assemble(ci int32, ids *[]itemset.ID) Pattern {
	chain := make([]LevelInfo, m.height)
	cur := ci
	for h := m.height; h >= 1; h-- {
		r := &m.chains[cur]
		lo := len(*ids)
		*ids = append(*ids, m.chainIDs[r.lo:r.hi]...)
		chain[h-1] = LevelInfo{
			Level:   h,
			Items:   itemset.Set((*ids)[lo:len(*ids):len(*ids)]),
			Support: r.sup,
			Corr:    r.corr,
			Label:   r.label,
		}
		cur = r.parent
	}
	p := Pattern{Leaf: chain[m.height-1].Items, Chain: chain}
	p.computeGap()
	return p
}
