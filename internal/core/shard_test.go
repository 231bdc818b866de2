package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/sketch"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestShardedMiningEquivalence is the acceptance property of shard-parallel
// counting: across every counting strategy, every pruning level and shard
// counts 1, 2 and 7, mining a partitioned database produces output
// byte-identical to the unsharded run — same patterns, same supports, same
// correlations and labels. Within one shard count, the whole stats
// envelope (volatile keys aside) must also be identical at Parallelism 1, 3
// and 8: splitting a pass into more or fewer work units may not double- or
// under-count a counter such as probes_pruned or bitmap_word_ops. Every
// strategy runs materialized, and scan streaming as well. It runs under
// the CI race job (go test -race ./...), so the worker scratch discipline
// is also raced on every PR.
func TestShardedMiningEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	shardCounts := []int{1, 2, 7}
	variants := []struct {
		strategy    CountStrategy
		materialize bool
	}{
		{CountScan, true}, {CountTIDList, true}, {CountBitmap, true}, {CountAuto, true}, {CountScan, false},
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, pruning := range Levels() {
			for _, v := range variants {
				strategy := v.strategy
				cfg := Config{
					Measure:     measure.Kulczynski,
					Gamma:       0.3,
					Epsilon:     0.1,
					MinSupAbs:   []int64{2, 1, 1},
					Pruning:     pruning,
					Strategy:    strategy,
					Materialize: v.materialize,
				}
				base, err := Mine(db, tree, cfg)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, pruning, strategy, err)
				}
				want := fingerprint(base, tree)
				if base.Stats.Shards != 1 {
					t.Fatalf("trial %d: unsharded run reports %d shards", trial, base.Stats.Shards)
				}
				for _, shards := range shardCounts {
					var serial string
					for _, par := range []int{1, 3, 8} {
						c := cfg
						c.Shards = shards
						c.Parallelism = par
						res, err := Mine(db, tree, c)
						if err != nil {
							t.Fatalf("trial %d %v/%v shards=%d: %v", trial, pruning, strategy, shards, err)
						}
						if got := fingerprint(res, tree); got != want {
							t.Fatalf("trial %d: %v/%v with %d shards diverged from unsharded.\nunsharded:\n%s\nsharded:\n%s",
								trial, pruning, strategy, shards, want, got)
						}
						if shards > 1 && res.Stats.Shards != shards {
							t.Fatalf("trial %d: requested %d shards, stats report %d", trial, shards, res.Stats.Shards)
						}
						got := stableStats(t, res)
						if par == 1 {
							serial = got
						} else if got != serial {
							t.Fatalf("trial %d: %v/%v (materialize=%v) shards=%d: stats at parallelism %d differ from serial.\nserial:   %s\nparallel: %s",
								trial, pruning, strategy, v.materialize, shards, par, serial, got)
						}
					}
				}
				// The same property through an explicit ShardedSource.
				ss := txdb.PartitionSource(db, 3)
				res, err := Mine(ss, tree, cfg)
				if err != nil {
					t.Fatalf("trial %d %v/%v sharded source: %v", trial, pruning, strategy, err)
				}
				if got := fingerprint(res, tree); got != want {
					t.Fatalf("trial %d: %v/%v over a ShardedSource diverged from unsharded", trial, pruning, strategy)
				}
				if res.Stats.Shards != 3 {
					t.Fatalf("trial %d: ShardedSource run reports %d shards, want 3", trial, res.Stats.Shards)
				}
			}
		}
	}
}

// stableStats is a run's stats envelope with VolatileStatsKeys removed.
func stableStats(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(res.Stats.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range VolatileStatsKeys() {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestShardedStreamingEquivalence covers the disk-resident shard path: a
// partitioned in-memory source and a ShardedSource of per-shard basket
// files (the out-of-core layout) must stream-count to the same output as
// the single-source streaming scan.
func TestShardedStreamingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:     measure.Kulczynski,
			Gamma:       0.3,
			Epsilon:     0.1,
			MinSupAbs:   []int64{2, 1, 1},
			Pruning:     Full,
			Strategy:    CountScan,
			Materialize: false,
		}
		base, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(base, tree)

		c := cfg
		c.Shards = 4
		res, err := Mine(db, tree, c)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res, tree); got != want {
			t.Fatalf("trial %d: streaming with in-memory shards diverged.\nwant:\n%s\ngot:\n%s", trial, want, got)
		}

		// Out-of-core: each partition written to its own basket file, mined
		// through file-backed shards that re-read disk on every pass.
		dir := t.TempDir()
		var shards []txdb.Source
		for i, part := range txdb.Partition(db, 3) {
			path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.WriteBaskets(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			fs, err := txdb.OpenFile(path, tree.Dict())
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, fs)
		}
		ss, err := txdb.NewSharded(shards...)
		if err != nil {
			t.Fatal(err)
		}
		res, err = Mine(ss, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res, tree); got != want {
			t.Fatalf("trial %d: out-of-core sharded streaming diverged.\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		if res.Stats.Shards != 3 {
			t.Fatalf("trial %d: file-sharded run reports %d shards, want 3", trial, res.Stats.Shards)
		}
	}
}

// flakySource is a Source whose Scan succeeds ok times and then fails —
// the shape of a disk going away between streaming counting passes.
type flakySource struct {
	db    *txdb.DB
	ok    int
	scans int
}

func (f *flakySource) Scan(fn func(tx itemset.Set) error) error {
	f.scans++
	if f.scans > f.ok {
		return errors.New("shard file unreadable")
	}
	return f.db.Scan(fn)
}

func (f *flakySource) Len() int               { return f.db.Len() }
func (f *flakySource) Dict() *dict.Dictionary { return f.db.Dict() }

// TestStreamingScanErrorFailsMine pins the failure contract of disk-resident
// counting, sharded and not: an I/O error during a counting pass must fail
// the mine rather than silently dropping the failed pass's counts.
func TestStreamingScanErrorFailsMine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{1, 1, 1},
		Pruning:     Full,
		Strategy:    CountScan,
		Materialize: false,
	}

	// Single source: the init pass succeeds, the first counting pass fails.
	if _, err := Mine(&flakySource{db: db, ok: 1}, tree, cfg); err == nil {
		t.Fatal("unsharded streaming mine over a failing source succeeded")
	}

	// Sharded source with one bad shard: each shard scans once at init, so
	// ok=1 makes the bad shard fail on its first counting pass.
	parts := txdb.Partition(db, 2)
	ss, err := txdb.NewSharded(parts[0], &flakySource{db: parts[1], ok: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(ss, tree, cfg); err == nil {
		t.Fatal("sharded streaming mine with a failing shard succeeded")
	}
}

// TestShardsExcludedFromCanonicalKey pins the cache-safety contract: shard
// count is an execution knob and must not split the result cache.
func TestShardsExcludedFromCanonicalKey(t *testing.T) {
	a := DefaultConfig(3)
	b := DefaultConfig(3)
	b.Shards = 7
	b.Parallelism = 5
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("Shards/Parallelism changed the canonical key:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
}

// TestShardsValidation rejects negative shard counts and accepts the
// degenerate ones.
func TestShardsValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Shards = -1
	if err := cfg.Validate(2, 100); err == nil {
		t.Fatal("negative Shards validated")
	}
	for _, n := range []int{0, 1, 64} {
		cfg.Shards = n
		if err := cfg.Validate(2, 100); err != nil {
			t.Fatalf("Shards=%d rejected: %v", n, err)
		}
	}
}

// TestShardStatsSurface checks that a sharded run reports its shard count
// and merge time through the JSON wire form.
func TestShardStatsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{1, 1, 1},
		Pruning:     Full,
		Strategy:    CountBitmap,
		Materialize: true,
		Shards:      4,
	}
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	js := res.Stats.JSON()
	if js.Shards != 4 {
		t.Fatalf("StatsJSON.Shards = %d, want 4", js.Shards)
	}
	if js.ShardMergeNs != res.Stats.ShardMergeNs {
		t.Fatalf("StatsJSON.ShardMergeNs = %d, want %d", js.ShardMergeNs, res.Stats.ShardMergeNs)
	}
	if res.Stats.CandidatesCounted > 0 && res.Stats.BitmapBuilds < 4 {
		t.Fatalf("sharded bitmap run built %d indexes, want ≥ 4 (one per shard)", res.Stats.BitmapBuilds)
	}
}

// TestUnshardedIsOneShardLayout pins what "unsharded means one shard" must
// not change: Config.Shards 0 and 1 share one cached representation, and
// the sketch fingerprint of that representation hashes a shard count of 0,
// so sketch files saved for unsharded datasets keep warm-starting.
func TestUnshardedIsOneShardLayout(t *testing.T) {
	db, tree := paperToy(t)
	eng := NewEngine(db, tree)
	for _, shards := range []int{0, 1} {
		cfg := toyConfig()
		cfg.Shards = shards
		if _, err := eng.Mine(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if len(eng.data) != 1 {
		t.Fatalf("Shards 0 and 1 built %d dataset representations, want 1", len(eng.data))
	}
	for _, tc := range []struct{ shards, hashed int }{{0, 0}, {1, 0}, {2, 2}} {
		cfg := toyConfig()
		cfg.Shards = tc.shards
		minSup, err := cfg.validate(tree.Height(), db.Len())
		if err != nil {
			t.Fatal(err)
		}
		m := &miner{cfg: cfg, tax: tree, src: db, height: tree.Height(), n: db.Len(), minSup: minSup}
		if err := m.init(); err != nil {
			t.Fatal(err)
		}
		want := sketch.Hash(uint64(m.n)<<32 ^ uint64(m.height)<<8 ^ uint64(tc.hashed))
		for h := 1; h <= m.height; h++ {
			for id, sup := range m.ds.sup1[h] {
				want ^= sketch.Hash(uint64(h)<<56 ^ uint64(uint32(id))<<24 ^ uint64(sup))
			}
		}
		if got := m.sketchFingerprint(); got != want {
			t.Errorf("shards=%d: sketch fingerprint %x, want %x (shard count %d hashed)", tc.shards, got, want, tc.hashed)
		}
		m.release()
	}
}
