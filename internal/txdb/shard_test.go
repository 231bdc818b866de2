package txdb

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

func randomShardDB(t *testing.T, n int, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New(nil)
	for i := 0; i < n; i++ {
		w := rng.Intn(5)
		names := make([]string, 0, w)
		for j := 0; j < w; j++ {
			names = append(names, fmt.Sprintf("item%02d", rng.Intn(20)))
		}
		db.AddNames(names...)
	}
	return db
}

// replay collects the transaction sequence a source produces.
func replay(t *testing.T, src Source) []itemset.Set {
	t.Helper()
	var out []itemset.Set
	if err := src.Scan(func(tx itemset.Set) error {
		out = append(out, tx.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPartitionPreservesOrderAndDict(t *testing.T) {
	db := randomShardDB(t, 103, 1)
	want := replay(t, db)
	for _, n := range []int{1, 2, 3, 7, 103, 500} {
		parts := Partition(db, n)
		if len(parts) == 0 || len(parts) > n {
			t.Fatalf("Partition(%d) returned %d shards", n, len(parts))
		}
		total := 0
		var got []itemset.Set
		for _, p := range parts {
			if p.Dict() != db.Dict() {
				t.Fatalf("Partition(%d): shard does not share the dictionary", n)
			}
			if p.Len() == 0 {
				t.Fatalf("Partition(%d): empty shard", n)
			}
			total += p.Len()
			got = append(got, replay(t, p)...)
		}
		if total != db.Len() {
			t.Fatalf("Partition(%d): shard lengths sum to %d, want %d", n, total, db.Len())
		}
		if len(got) != len(want) {
			t.Fatalf("Partition(%d): replay has %d transactions, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("Partition(%d): transaction %d differs", n, i)
			}
		}
	}
}

func TestPartitionEmptyDB(t *testing.T) {
	db := New(nil)
	parts := Partition(db, 4)
	if len(parts) != 1 || parts[0].Len() != 0 {
		t.Fatalf("Partition of empty DB = %d shards, want one empty shard", len(parts))
	}
}

func TestShardedSourceEqualsConcatenation(t *testing.T) {
	db := randomShardDB(t, 64, 2)
	want := replay(t, db)
	ss := PartitionSource(db, 5)
	if ss.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", ss.Len(), db.Len())
	}
	if ss.Dict() != db.Dict() {
		t.Fatal("sharded source does not share the dictionary")
	}
	if ss.NumShards() != 5 {
		t.Fatalf("NumShards = %d, want 5", ss.NumShards())
	}
	got := replay(t, ss)
	if len(got) != len(want) {
		t.Fatalf("replay has %d transactions, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("transaction %d differs through the sharded source", i)
		}
	}
	// Summary statistics agree as well.
	a, err := ComputeStats(db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeStats(ss)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(); err == nil {
		t.Fatal("NewSharded() accepted zero shards")
	}
	a := New(nil)
	a.AddNames("x")
	b := New(nil) // fresh dictionary, not shared
	b.AddNames("x")
	if _, err := NewSharded(a, b); err == nil {
		t.Fatal("NewSharded accepted shards with distinct dictionaries")
	}
	c := New(a.Dict())
	c.AddNames("y")
	ss, err := NewSharded(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ss.Len())
	}
}

func TestShardedFileSources(t *testing.T) {
	dir := t.TempDir()
	d := dict.New()
	var shards []Source
	var want []string
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.txt", i))
		content := fmt.Sprintf("a%d,b%d\nc%d\n", i, i, i)
		want = append(want, fmt.Sprintf("a%d", i))
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFile(path, d)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, fs)
	}
	ss, err := NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ss.Len())
	}
	got := replay(t, ss)
	if len(got) != 6 {
		t.Fatalf("replayed %d transactions, want 6", len(got))
	}
	for i, name := range want {
		id, ok := d.Lookup(name)
		if !ok {
			t.Fatalf("item %q missing from shared dictionary", name)
		}
		if !got[2*i].Contains(id) {
			t.Fatalf("transaction %d does not contain %q", 2*i, name)
		}
	}
}

func TestMaterializeShardsMergesToUnsharded(t *testing.T) {
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 3; r++ {
		for l := 0; l < 3; l++ {
			if err := b.AddPath(fmt.Sprintf("c%d", r), fmt.Sprintf("c%d.%d", r, l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	db := New(tree.Dict())
	for i := 0; i < 90; i++ {
		w := 1 + rng.Intn(4)
		names := make([]string, 0, w)
		for j := 0; j < w; j++ {
			names = append(names, fmt.Sprintf("c%d.%d", rng.Intn(3), rng.Intn(3)))
		}
		db.AddNames(names...)
	}
	ss := PartitionSource(db, 4)
	shardViews, err := MaterializeShards(context.Background(), ss.Shards(), tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tree.Height(); h++ {
		whole, err := Materialize(db, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		merged := make(map[itemset.ID]int64)
		maxWidth, total := 0, 0
		for _, levels := range shardViews {
			v := levels[h]
			total += len(v.Tx)
			if v.MaxWidth > maxWidth {
				maxWidth = v.MaxWidth
			}
			for id, sup := range v.Support {
				merged[id] += sup
			}
		}
		if total != len(whole.Tx) {
			t.Fatalf("level %d: shard views hold %d transactions, want %d", h, total, len(whole.Tx))
		}
		if maxWidth != whole.MaxWidth {
			t.Fatalf("level %d: merged MaxWidth %d, want %d", h, maxWidth, whole.MaxWidth)
		}
		if len(merged) != len(whole.Support) {
			t.Fatalf("level %d: merged support has %d items, want %d", h, len(merged), len(whole.Support))
		}
		for id, sup := range whole.Support {
			if merged[id] != sup {
				t.Fatalf("level %d: support of %v = %d merged, want %d", h, id, merged[id], sup)
			}
		}
	}
}

// TestForEachShardVisitsEachOnce pins the pool contract callers index
// per-worker state by: every index in [0, n) runs exactly once, on a worker
// w below the bounded pool size — w = 0 for a pool of one, which runs on
// the calling goroutine.
func TestForEachShardVisitsEachOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 10} {
		for _, n := range []int{0, 1, 7} {
			pool := min(max(workers, 1), max(n, 1))
			visits := make([]int, n)
			owner := make([]int, n)
			ForEachShard(workers, n, func(w, s int) {
				visits[s]++
				owner[s] = w
			})
			for s := range visits {
				if visits[s] != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, s, visits[s])
				}
				if owner[s] < 0 || owner[s] >= pool || owner[s] != s%pool {
					t.Fatalf("workers=%d n=%d: index %d ran on worker %d of %d", workers, n, s, owner[s], pool)
				}
			}
		}
	}
}
