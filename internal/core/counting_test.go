package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestScanTxsTrieDescent exercises the scan counter's hot loop — filter to
// candidate-relevant items, descend the trie, account pruned probes —
// directly against a hand-built cell.
func TestScanTxsTrieDescent(t *testing.T) {
	c := newCell(1, 2)
	var m miner
	m.addCandidate(c, itemset.New(1, 2))
	m.addCandidate(c, itemset.New(2, 3))
	c.store.Freeze()
	counts := make([]int64, c.store.Len())
	// Transaction {1,2,3,99}: 99 is filtered out by the candidate universe;
	// both pairs match with weight 5. Of the C(3,2)=3 remaining subsets,
	// {1,3} has no candidate and is pruned by the descent.
	data := flatten([]txdb.WeightedTx{{Items: itemset.New(1, 2, 3, 99), Weight: 5}})
	pruned, _ := scanTxs(c, &data, 0, data.n(), counts, nil)
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	for _, set := range []itemset.Set{itemset.New(1, 2), itemset.New(2, 3)} {
		if got := counts[c.store.Lookup(set)]; got != 5 {
			t.Errorf("count of %v = %d", set, got)
		}
	}
	// Too-narrow transaction contributes nothing.
	before := append([]int64(nil), counts...)
	narrow := flatten([]txdb.WeightedTx{{Items: itemset.New(2), Weight: 1}})
	scanTxs(c, &narrow, 0, narrow.n(), counts, nil)
	for i := range counts {
		if counts[i] != before[i] {
			t.Error("narrow transaction changed counts")
		}
	}
}

func TestChooseStrategy(t *testing.T) {
	db, tree := paperToy(t)
	cfg := toyConfig()
	cfg.Strategy = CountAuto
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("auto strategy found %d patterns", len(res.Patterns))
	}
}

func TestAutoMatchesScanOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
			MinSupAbs: []int64{2, 1, 1}, Pruning: Full, Materialize: true,
		}
		cfg.Strategy = CountScan
		a, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = CountAuto
		b, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a, tree) != fingerprint(b, tree) {
			t.Fatalf("trial %d: auto diverged from scan", trial)
		}
	}
}

// taxonomyBuilderForDense builds a flat, wide taxonomy: 40 categories with
// two leaves each, height 2 — so level 1 has 40 items and C(40,2) = 780
// pair candidates when supports are permissive.
func taxonomyBuilderForDense(t *testing.T) *taxonomy.Builder {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 40; r++ {
		for l := 0; l < 2; l++ {
			if err := b.AddPath(fmt.Sprintf("cat%02d", r), fmt.Sprintf("leaf%02d.%d", r, l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

// txdbForDense draws 500 transactions of 8 random leaves each: dense enough
// that level views barely dedupe and candidate counts stay high.
func txdbForDense(rng *rand.Rand, tree *taxonomy.Tree) *txdb.DB {
	db := txdb.New(tree.Dict())
	for i := 0; i < 500; i++ {
		var names []string
		for j := 0; j < 8; j++ {
			names = append(names, fmt.Sprintf("leaf%02d.%d", rng.Intn(40), rng.Intn(2)))
		}
		db.AddNames(names...)
	}
	return db
}

// TestChooseStrategyPicksBitmapOnDenseCells drives CountAuto over a dense,
// high-candidate workload (many frequent items, wide transactions) and
// checks the cost model actually routes some cells to the bitmap backend:
// with hundreds of candidates against ⌈n/64⌉-word vectors, AND+popcount is
// the cheapest regime.
func TestChooseStrategyPicksBitmapOnDenseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := taxonomyBuilderForDense(t)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdbForDense(rng, tree)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1}, Pruning: Basic, Materialize: true,
		Strategy: CountAuto,
	}
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BitmapBuilds == 0 {
		t.Fatalf("auto never chose bitmap on a dense workload: %+v", res.Stats)
	}
	// And the auto run must agree with a pure scan run.
	cfg.Strategy = CountScan
	want, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res, tree) != fingerprint(want, tree) {
		t.Fatal("auto (with bitmap cells) diverged from scan")
	}
}

// TestBitmapIndexBuiltLazilyOnce: each level's bitmap index is built once,
// on first use by either bitmap counting or an anchored exact fallback, and
// later users share it. Only bitmap counting accounts the build: an
// anchored run reports no bitmap builds or word ops, and a CountBitmap run
// after it on the same engine reports what it reports on a fresh engine.
func TestBitmapIndexBuiltLazilyOnce(t *testing.T) {
	db, tree := paperToy(t)
	m := newTestMiner(t, db, tree, toyConfig())
	first := m.bitmapLevel(1)[0].bm
	if m.stats.BitmapBuilds != 0 {
		t.Errorf("bitmapLevel charged %d builds to the run", m.stats.BitmapBuilds)
	}
	if got := m.bitmapIndexes(1)[0].bm; got != first {
		t.Error("bitmap counting rebuilt the index instead of sharing it")
	}
	if m.stats.BitmapBuilds != 1 {
		t.Errorf("bitmap counting's first use charged %d builds, want 1", m.stats.BitmapBuilds)
	}
	a, _ := tree.Dict().Lookup("a")
	if sup, _ := first.Support(itemset.New(a)); sup != 8 {
		t.Errorf("support of 'a' at level 1 = %d, want 8", sup)
	}

	rng := rand.New(rand.NewSource(3))
	db2, tree2 := randomDataset(rng)
	base := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{2, 1, 1}, Materialize: true,
	}
	eng := NewEngine(db2, tree2)
	anchored := base
	anchored.Anchor, anchored.AnchorTopK = "c0", 5
	anchored.SketchK = 1 // one-hash signatures leave most supports to exact fallbacks
	res, err := eng.Mine(anchored)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactFallbacks == 0 {
		t.Fatal("the anchored run made no exact fallback")
	}
	if res.Stats.BitmapBuilds != 0 || res.Stats.BitmapWordOps != 0 {
		t.Errorf("anchored run reports bitmap_builds %d, bitmap_word_ops %d; want 0, 0",
			res.Stats.BitmapBuilds, res.Stats.BitmapWordOps)
	}
	ds := eng.data[dataKey{materialize: true, shards: 1}]
	shared := make(map[int]*bitmap.Index)
	for h := 1; h <= tree2.Height(); h++ {
		if bm := ds.levels[h][0].bm; bm != nil {
			shared[h] = bm
		}
	}
	if len(shared) == 0 {
		t.Fatal("anchored exact fallbacks built no bitmap index")
	}
	counting := base
	counting.Strategy = CountBitmap
	fresh, err := NewEngine(db2, tree2).Mine(counting)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Mine(counting)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.BitmapBuilds != fresh.Stats.BitmapBuilds || warm.Stats.BitmapWordOps != fresh.Stats.BitmapWordOps {
		t.Errorf("bitmap run after an anchored one: builds %d, word ops %d; fresh engine: %d, %d",
			warm.Stats.BitmapBuilds, warm.Stats.BitmapWordOps, fresh.Stats.BitmapBuilds, fresh.Stats.BitmapWordOps)
	}
	for h, bm := range shared {
		if ds.levels[h][0].bm != bm {
			t.Errorf("level %d: bitmap counting rebuilt the anchored run's index", h)
		}
	}
}
