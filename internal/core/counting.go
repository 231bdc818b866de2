package core

import (
	"time"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// count fills in the support of every candidate in the cell with one pass
// over the data or one batch of bitmap AND+popcounts. The cell's trie is
// frozen here (CSR spans and the item-membership bitset filled), after
// which the store is safe for concurrent readers.
func (m *miner) count(c *cell) {
	m.stats.DBScans++
	m.stats.TrieNodes += int64(c.store.NodeCount())
	c.store.Freeze()
	if m.remote != nil {
		// Delegated counting (MineRemote): the CellCounter owns the pass —
		// strategy choice, sharding, fan-out all happen on its side.
		m.countRemote(c)
		return
	}
	strategy := m.cfg.Strategy
	if strategy == CountAuto {
		strategy = m.chooseStrategy(c)
	}
	switch {
	case !m.cfg.Materialize:
		m.countStreaming(c)
	case strategy == CountBitmap:
		m.countBitmap(c)
	default:
		m.countScan(c)
	}
}

// scanProbeWeight converts one scan probe (one subset reached by trie
// descent) into the model's base unit — one sequential word operation,
// which is what a bitmap AND costs. The trie store cut the probe from a key
// build plus a string-map lookup (~8 units pre-PR3) to a handful of
// node/item comparisons; recalibrated on BenchmarkCountingDense (~12ns per
// probed subset vs ~5ns per word op on a 2.1GHz Xeon). The C(w,k) term
// stays an upper bound: descent abandons subsets with no candidate prefix
// early, so dense cells overestimate scan cost slightly and the model errs
// toward the bitmap backend exactly where it wins.
const scanProbeWeight = 2.5

// chooseStrategy is the CountAuto cost model, in units of one sequential
// word operation. Scan cost: every distinct transaction explores at most
// C(w, k) subsets by trie descent, each worth scanProbeWeight units. Bitmap
// cost: every candidate ANDs k vectors of ⌈distinct/64⌉ words, plus a
// one-time per-level build of one word-vector per item. Scans win when
// candidates dwarf the database (their cost is candidate-independent), and
// bitmaps win when a high candidate count meets a dense level — many
// probes amortizing the fixed-width vectors.
//
// Sharding enters the model in two places. The per-candidate merge of
// partial vectors costs every backend the same additions, so it cancels out
// of the comparison and is omitted. Bitmap vectors, however, round up to
// whole words per shard instead of once per level, so S shards pay up to
// S−1 extra words per candidate AND (and per item at build time); the
// distinct-transaction count is likewise the per-shard sum, which already
// reflects the dedup lost at shard boundaries.
//
// The build term follows the run's logical build flags (m.bmBuilt), not the
// engine cache: a warm run prices — and therefore chooses — exactly as the
// cold run did, which is what keeps reused-engine output byte-identical.
func (m *miner) chooseStrategy(c *cell) CountStrategy {
	sup1 := m.ds.sup1[c.h]
	items := len(sup1)
	if items == 0 {
		return CountScan
	}
	var volume int64
	for _, sup := range sup1 {
		volume += sup
	}
	distinct := 0
	for s := range m.ds.levels[c.h] {
		distinct += m.ds.levels[c.h][s].flat.n()
	}
	// Materialized views hold one generalized transaction per raw one, so
	// the level's transaction count is m.n regardless of sharding.
	avgWidth := float64(volume) / float64(m.n)
	scanCost := scanProbeWeight * float64(distinct) * float64(itemset.Binomial(int(avgWidth+1), c.k))
	words := float64(bitmap.Words(distinct) + len(m.ds.shards) - 1) // per-shard word rounding
	bitCost := float64(c.candidates) * float64(c.k) * words
	if !m.bmBuilt[c.h] {
		bitCost += float64(items) * words // the build pass, paid once per run
	}
	if bitCost < scanCost {
		return CountBitmap
	}
	return CountScan
}

// fanOut runs one counting pass of cell c as work units over a bounded
// worker pool. Each of the S shards splits into per units — unit i is part
// i%per of shard i/per — and min(cfg.workers(), S·per) workers take the
// units round-robin (txdb.ForEachShard), each summing into its own pooled
// partial support vector; mergePartials then folds the partials into the
// cell's slab. A lone worker sums straight into the slab. With
// per = ⌈W/S⌉ this one rule is a range fan-out over the whole database
// when S = 1 and a one-shard-per-worker pool when S ≥ W. A transaction
// lives in exactly one shard, the units of a shard split its transactions
// or its candidates disjointly, and the merge is plain int64 addition, so
// the totals cannot depend on the split — TestShardedMiningEquivalence pins
// patterns and stats across shard counts and parallelism.
//
// unit returns a counter the pass reports (probes pruned, word ops) and an
// error; fanOut returns the counters' sum and the first error, after which
// a worker skips its remaining units.
func (m *miner) fanOut(c *cell, per int, unit func(w, s, part int, counts []int64) (int64, error)) (int64, error) {
	units := len(m.ds.shards) * per
	workers := boundWorkers(&m.cfg, units)
	var partials [][]int64
	if workers == 1 {
		partials = [][]int64{c.store.Sup}
	} else {
		partials = m.sc.partialsFor(workers, c.store.Len())
	}
	sums := make([]int64, workers)
	errs := make([]error, workers)
	txdb.ForEachShard(workers, units, func(w, i int) {
		if errs[w] != nil {
			return
		}
		var n int64
		n, errs[w] = unit(w, i/per, i%per, partials[w])
		sums[w] += n
	})
	if workers > 1 {
		m.mergePartials(c, partials)
	}
	var total int64
	var err error
	for w := range sums {
		total += sums[w]
		if err == nil {
			err = errs[w]
		}
	}
	return total, err
}

// unitsPerShard is the ⌈W/S⌉ split of the materialized backends: enough
// units per shard that every one of the W workers has work even when there
// are fewer shards than workers.
func (m *miner) unitsPerShard() int {
	s := len(m.ds.shards)
	return (m.cfg.workers() + s - 1) / s
}

// span returns range part of per near-equal ranges over [0, n), their
// bounds rounded up to multiples of align.
func span(n, per, part, align int) (lo, hi int) {
	chunk := (n + per - 1) / per
	chunk = (chunk + align - 1) / align * align
	lo = min(part*chunk, n)
	return lo, min(lo+chunk, n)
}

// mergePartials folds the per-worker partial support vectors into the
// cell's slab. The time spent here is the serial fraction of parallel
// counting and is surfaced as Stats.ShardMergeNs.
func (m *miner) mergePartials(c *cell, partials [][]int64) {
	start := time.Now()
	sup := c.store.Sup
	for _, counts := range partials {
		for i, n := range counts {
			sup[i] += n
		}
	}
	m.stats.ShardMergeNs += time.Since(start).Nanoseconds()
}

// scanTxs counts the flat arena's transactions [lo, hi) into counts by trie
// descent: filter the transaction to candidate-relevant items, then walk
// the items down the trie so only subsets sharing a candidate prefix are
// ever enumerated. The arena is walked front to back, so a block of
// transactions streams through cache while the trie's CSR slabs stay
// resident. Returns the number of subset probes the descent skipped
// relative to a flat C(w,k) enumeration.
func scanTxs(c *cell, f *flatLevel, lo, hi int, counts []int64, filtered itemset.Set) (pruned int64, scratch itemset.Set) {
	k := c.k
	st := c.store
	items, starts, weights := f.items, f.starts, f.weights
	for t := lo; t < hi; t++ {
		filtered = st.Filter(items[starts[t]:starts[t+1]], filtered[:0])
		if len(filtered) < k {
			continue
		}
		hits := st.CountTx(filtered, weights[t], counts)
		pruned += itemset.Binomial(len(filtered), k) - hits
	}
	return pruned, filtered
}

// scanUnit is one work unit of the scan backend: range part of per
// scanBlock-aligned transaction ranges of a shard's flat arena, walked
// through scanTxs one block at a time while polling the run's cancellation
// channel between blocks — the scan kernel itself stays checkpoint-free, so
// a cancelled run abandons the pass within one block of work while the hot
// loop is untouched. Engine.ShardSupports counts a whole shard as unit 0
// of 1.
func scanUnit(c *cell, f *flatLevel, part, per int, counts []int64, done <-chan struct{}) (pruned int64) {
	lo, hi := span(f.n(), per, part, scanBlock)
	var filtered itemset.Set
	for lo < hi {
		if canceled(done) {
			return pruned
		}
		end := min(lo+scanBlock, hi)
		var p int64
		p, filtered = scanTxs(c, f, lo, end, counts, filtered)
		pruned += p
		lo = end
	}
	return pruned
}

// cancelCheckMask sets the granularity of per-candidate cancellation polls
// in the bitmap backend: one poll every 256 candidates costs one AND+branch
// per candidate against work that is orders of magnitude larger (k vector
// ANDs).
const cancelCheckMask = 255

// scanBlock is the transaction-block granularity of scan units: their
// ranges align to it, so no two workers interleave inside one block of an
// arena.
const scanBlock = 512

// countScan counts over the level's flat transaction arenas, each shard's
// arena split into scanBlock-aligned transaction ranges.
func (m *miner) countScan(c *cell) {
	lv := m.ds.levels[c.h]
	per := m.unitsPerShard()
	pruned, _ := m.fanOut(c, per, func(_, s, part int, counts []int64) (int64, error) {
		return scanUnit(c, &lv[s].flat, part, per, counts, m.done), nil
	})
	m.stats.ProbesPruned += pruned
}

// countStreaming is the disk-resident mode: one sequential pass over every
// shard source — for a ShardedSource of FileSources, over its basket files
// in parallel — with on-the-fly generalization to the cell's level.
// Streaming units are whole shards, so memory stays one scan buffer and one
// partial vector per worker. A scan failure parks in m.scanErr and fails
// the mine.
func (m *miner) countStreaming(c *cell) {
	if m.scanErr != nil {
		return
	}
	pruned, err := m.fanOut(c, 1, func(_, s, _ int, counts []int64) (int64, error) {
		return streamCount(c, m.ds.shards[s], m.tax, counts, m.done)
	})
	if err != nil {
		m.scanErr = err
		return
	}
	m.stats.ProbesPruned += pruned
}

// streamCount is the one stream-generalize-count loop, shared by local
// streaming counting and Engine.ShardSupports: a pass over src generalizing
// each transaction to the cell's level and counting it into counts by trie
// descent. Streaming passes can't chunk the loop, so the callback polls
// done every 1024 transactions — amortized to a counter increment — and
// aborts the pass with errCancelled.
func streamCount(c *cell, src txdb.Source, tax *taxonomy.Tree, counts []int64, done <-chan struct{}) (pruned int64, err error) {
	st := c.store
	var filtered itemset.Set
	buf := make([]itemset.ID, 0, 32)
	seen := 0
	err = src.Scan(func(tx itemset.Set) error {
		if seen++; seen&1023 == 0 && canceled(done) {
			return errCancelled
		}
		buf = buf[:0]
		for _, id := range tx {
			if a, ok := tax.AncestorAt(id, c.h); ok {
				buf = append(buf, a)
			}
		}
		filtered = st.Filter(itemset.Canon(buf), filtered[:0])
		if len(filtered) < c.k {
			return nil
		}
		hits := st.CountTx(filtered, 1, counts)
		pruned += itemset.Binomial(len(filtered), c.k) - hits
		return nil
	})
	return pruned, err
}

// countBitmap counts by AND-ing per-item bit vectors over the distinct
// weighted transactions of each shard. Units are candidate ranges of one
// shard; per-shard supports sum exactly, and per-shard word-op counts
// accumulate into Stats.BitmapWordOps.
func (m *miner) countBitmap(c *cell) {
	lv := m.bitmapIndexes(c.h)
	st := c.store
	per := m.unitsPerShard()
	scratches := m.sc.vecsFor(m.cfg.workers(), c.k)
	ops, _ := m.fanOut(c, per, func(w, s, part int, counts []int64) (int64, error) {
		lo, hi := span(st.Len(), per, part, 1)
		var local int64
		for e := lo; e < hi; e++ {
			if e&cancelCheckMask == 0 && m.cancelled() {
				break
			}
			sup, n := lv[s].bm.SupportInto(st.Items(int32(e)), scratches[w])
			counts[e] += sup
			local += n
		}
		return local, nil
	})
	m.stats.BitmapWordOps += ops
}

// bitmapIndexes returns the level's shards with their bitmap indexes built
// (bitmapLevel) for the bitmap counting backend, and accounts the build in
// the run's logical flags: Stats.BitmapBuilds counts one build per shard
// on the first use per level per run, cached or not.
func (m *miner) bitmapIndexes(h int) []shardLevel {
	lv := m.bitmapLevel(h)
	if !m.bmBuilt[h] {
		m.bmBuilt[h] = true
		m.stats.BitmapBuilds += int64(len(lv))
	}
	return lv
}

// bitmapLevel returns the level's shards with their per-item bit vectors
// built — over each shard's flat arena of deduplicated weighted
// transactions, on first use by any run of the engine, by a bounded worker
// pool over the shards — and cached in the dataset state. It charges
// nothing to the run: bitmap counting accounts builds through
// bitmapIndexes, while anchored exact supports share the index unaccounted,
// so BitmapBuilds and BitmapWordOps stay counting-backend counters.
func (m *miner) bitmapLevel(h int) []shardLevel {
	ds := m.ds
	lv := ds.levels[h]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if lv[0].bm == nil {
		txdb.ForEachShard(boundWorkers(&m.cfg, len(lv)), len(lv), func(_, s int) {
			f := &lv[s].flat
			txs := make([]itemset.Set, f.n())
			for t := range txs {
				txs[t] = f.items[f.starts[t]:f.starts[t+1]]
			}
			lv[s].bm = bitmap.Build(txs, f.weights)
		})
	}
	return lv
}
