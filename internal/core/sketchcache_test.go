package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/sketch"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// referenceSketches builds the anchored-search sketch set straight from its
// definition: each shard materialized on its own, and every raw generalized
// transaction ti of shard s observed, for each of its items, under key
// s<<32|ti. The fingerprint hashes the transaction count, height and shard
// layout (0 when unsharded) and every level's single supports.
func referenceSketches(t *testing.T, shards []txdb.Source, tree *taxonomy.Tree, k int) *sketch.Set {
	t.Helper()
	H := tree.Height()
	n, layout := 0, 0
	if len(shards) > 1 {
		layout = len(shards)
	}
	sup := make([]map[itemset.ID]int64, H+1)
	builders := make([]*sketch.Builder, H+1)
	for h := 1; h <= H; h++ {
		sup[h] = make(map[itemset.ID]int64)
		builders[h] = sketch.NewBuilder(k)
	}
	for s, src := range shards {
		n += src.Len()
		views, err := txdb.MaterializeLevels(context.Background(), src, tree)
		if err != nil {
			t.Fatal(err)
		}
		for h := 1; h <= H; h++ {
			for ti, tx := range views[h].Tx {
				for _, id := range tx {
					builders[h].Observe(id, uint64(s)<<32|uint64(ti))
					sup[h][id]++
				}
			}
		}
	}
	set := &sketch.Set{K: k, Levels: make([]*sketch.Level, H+1)}
	set.Fingerprint = sketch.Hash(uint64(n)<<32 ^ uint64(H)<<8 ^ uint64(layout))
	for h := 1; h <= H; h++ {
		set.Levels[h] = builders[h].Finish()
		for id, c := range sup[h] {
			set.Fingerprint ^= sketch.Hash(uint64(h)<<56 ^ uint64(uint32(id))<<24 ^ uint64(c))
		}
	}
	return set
}

// TestSketchesMatchDefinition pins the engine's sketch bytes — and so
// warm-start compatibility with sketch files saved by earlier builds, and
// best-effort answers — to the definition, unsharded, partitioned in place
// and over an explicit ShardedSource.
func TestSketchesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, tree := randomDataset(rng)
	encode := func(s *sketch.Set) []byte {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	halves := txdb.Partition(db, 2)
	partitioned := txdb.PartitionSource(db, 3)
	for _, tc := range []struct {
		name   string
		src    txdb.Source
		cfgSh  int
		shards []txdb.Source
	}{
		{"unsharded", db, 0, []txdb.Source{db}},
		{"shards-2", db, 2, []txdb.Source{halves[0], halves[1]}},
		{"sharded-source-3", partitioned, 0, partitioned.Shards()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
				MinSupAbs: []int64{2, 1, 1}, Materialize: true, Shards: tc.cfgSh,
				Anchor: "c0", AnchorTopK: 3, SketchK: 8,
			}
			minSup, err := cfg.validate(tree.Height(), db.Len())
			if err != nil {
				t.Fatal(err)
			}
			m := &miner{cfg: cfg, tax: tree, src: tc.src, height: tree.Height(), n: db.Len(), minSup: minSup}
			if err := m.bind(NewEngine(tc.src, tree)); err != nil {
				t.Fatal(err)
			}
			defer m.release()
			got, err := m.sketchSet()
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSketches(t, tc.shards, tree, cfg.SketchK)
			if !bytes.Equal(encode(got), encode(want)) {
				t.Fatal("engine sketches differ from the definition's")
			}
		})
	}
}

// hookedSource runs hook at the start of every Scan; a hook error fails
// that Scan.
type hookedSource struct {
	*txdb.DB
	scans int
	hook  func(scan int) error
}

func (s *hookedSource) Scan(fn func(itemset.Set) error) error {
	s.scans++
	if err := s.hook(s.scans); err != nil {
		return err
	}
	return s.DB.Scan(fn)
}

// TestSketchBuildFailureNotCached: the sketch build re-reads the source (its
// second Scan, after the dataset build's), so it can fail. A failed or
// cancelled build must fail the anchored mine with the cause, cache no
// sketch set, and leave the engine able to answer the next anchored mine.
func TestSketchBuildFailureNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	small, tree := randomDataset(rng)
	// Over 1024 transactions, so the materializing pass polls ctx mid-scan.
	db := txdb.New(tree.Dict())
	for db.Len() <= 1024 {
		for i := 0; i < small.Len(); i++ {
			db.AddSet(small.Tx(i))
		}
	}
	base := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{2, 1, 1}, Materialize: true,
	}
	full, err := Mine(db, tree, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Anchor, cfg.AnchorTopK = "c0", 3
	want := rankedFingerprint(anchoredReference(full, tree, "c0", 3), tree)
	noSketches := func(eng *Engine) {
		t.Helper()
		if ds := eng.data[dataKey{materialize: true, shards: 1}]; ds == nil || len(ds.sketches) != 0 {
			t.Fatal("a failed sketch build left a cached sketch set")
		}
	}

	t.Run("source-failure", func(t *testing.T) {
		src := &hookedSource{DB: db, hook: func(scan int) error {
			if scan == 2 {
				return errSentinel
			}
			return nil
		}}
		eng := NewEngine(src, tree)
		if _, err := eng.Mine(cfg); !errors.Is(err, errSentinel) {
			t.Fatalf("err = %v, want the source failure", err)
		}
		noSketches(eng)
		res, err := eng.Mine(cfg)
		if err != nil {
			t.Fatalf("retry after a failed sketch build: %v", err)
		}
		if got := rankedFingerprint(res.Patterns, tree); got != want {
			t.Fatalf("retry diverged from exact.\nexact:\n%s\nanchored:\n%s", want, got)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &hookedSource{DB: db, hook: func(scan int) error {
			if scan == 2 {
				cancel()
			}
			return nil
		}}
		eng := NewEngine(src, tree)
		if _, err := eng.MineContext(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		noSketches(eng)
	})
}
