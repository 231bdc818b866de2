package txdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// Reference implementations: the straightforward string-splitting parser,
// per-level materializer and sort-and-merge dedup the arena, one-pass and
// hash-table versions replaced. The parity tests hold the production code
// to them.

// refReadBaskets parses the basket format with strings.Split/TrimSpace and
// one allocation per transaction.
func refReadBaskets(r io.Reader, d *dict.Dictionary) (*DB, error) {
	db := New(d)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		if line == "" || line == "-" {
			db.Add()
			continue
		}
		parts := strings.Split(line, ",")
		ids := make([]itemset.ID, 0, len(parts))
		for _, p := range parts {
			name := strings.TrimSpace(p)
			if name == "" {
				return nil, fmt.Errorf("txdb: line %d: empty item name", lineNo)
			}
			ids = append(ids, db.dict.ID(name))
		}
		db.Add(ids...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: read: %w", err)
	}
	return db, nil
}

// refMaterialize generalizes every transaction to level h one at a time.
func refMaterialize(db *DB, tree *taxonomy.Tree, h int) *LevelView {
	lv := &LevelView{Level: h, Support: make(map[itemset.ID]int64)}
	for i := 0; i < db.Len(); i++ {
		var buf []itemset.ID
		for _, id := range db.Tx(i) {
			if a, ok := tree.AncestorAt(id, h); ok {
				buf = append(buf, a)
			}
		}
		g := itemset.New(buf...)
		lv.Tx = append(lv.Tx, g)
		lv.MaxWidth = max(lv.MaxWidth, len(g))
		for _, id := range g {
			lv.Support[id]++
		}
	}
	return lv
}

// refDedup sorts all rows and merges adjacent equal ones.
func refDedup(rows []itemset.Set) []WeightedTx {
	if len(rows) == 0 {
		return nil
	}
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, itemset.Compare)
	var out []WeightedTx
	for _, tx := range sorted {
		if n := len(out); n > 0 && out[n-1].Items.Equal(tx) {
			out[n-1].Weight++
			continue
		}
		out = append(out, WeightedTx{Items: tx, Weight: 1})
	}
	return out
}

// sameWeighted reports whether two dedup outputs hold the same rows, in the
// same order, with the same weights (nil and empty itemsets alike).
func sameWeighted(a, b []WeightedTx) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) || a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}

// dupRows is a testing/quick generator of heavily duplicated views: rows
// drawn from a small pool of itemsets over six item IDs, the empty
// transaction among them. The IDs are spaced by a random stride, so that
// some views have large IDs whose sort keys cannot hold a whole row and
// must fall back to itemset.Compare.
type dupRows []itemset.Set

func (dupRows) Generate(rng *rand.Rand, size int) reflect.Value {
	stride := []itemset.ID{1, 1 << 18, 1 << 28}[rng.Intn(3)]
	pool := make([]itemset.Set, 1+rng.Intn(8))
	for i := 1; i < len(pool); i++ { // pool[0] stays the empty set
		ids := make([]itemset.ID, rng.Intn(6))
		for j := range ids {
			ids[j] = itemset.ID(rng.Intn(6)) * stride
		}
		pool[i] = itemset.New(ids...)
	}
	rows := make(dupRows, rng.Intn(4*size+1))
	for i := range rows {
		rows[i] = pool[rng.Intn(len(pool))]
	}
	return reflect.ValueOf(rows)
}

// TestDedupMatchesSortMerge: on random views with heavy duplication and
// empty transactions, the hash-table Dedup yields exactly the sort-and-merge
// output — the same distinct rows, in the same lexicographic order, with the
// same weights.
func TestDedupMatchesSortMerge(t *testing.T) {
	prop := func(rows dupRows) bool {
		return sameWeighted((&LevelView{Tx: rows}).Dedup(), refDedup(rows))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupHashCollisions drives the equal-hash, unequal-set branch: with a
// hash that only sees an itemset's width (or nothing at all), unequal rows
// collide constantly, and Equal alone must keep them apart.
func TestDedupHashCollisions(t *testing.T) {
	weak := map[string]func(itemset.Set) uint64{
		"width":    func(s itemset.Set) uint64 { return uint64(len(s)) },
		"constant": func(itemset.Set) uint64 { return 42 },
	}
	prop := func(rows dupRows) bool {
		want := refDedup(rows)
		for _, h := range weak {
			if !sameWeighted(dedup(rows, h), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Enough distinct colliding rows to force table growth under a constant
	// hash: every rehash must keep the chains intact.
	var rows []itemset.Set
	for i := 0; i < 3000; i++ {
		rows = append(rows, itemset.New(itemset.ID(i%1500), itemset.ID(1500+i%7)))
	}
	if got, want := dedup(rows, weak["constant"]), refDedup(rows); !sameWeighted(got, want) {
		t.Fatalf("constant hash: %d distinct rows, want %d", len(got), len(want))
	}
}

// randomLeafDB draws n transactions of up to maxWidth leaves of tree,
// empty ones included.
func randomLeafDB(rng *rand.Rand, tree *taxonomy.Tree, n, maxWidth int) *DB {
	leaves := tree.Leaves()
	db := New(tree.Dict())
	for i := 0; i < n; i++ {
		ids := make([]itemset.ID, rng.Intn(maxWidth+1))
		for j := range ids {
			ids[j] = leaves[rng.Intn(len(leaves))]
		}
		db.Add(ids...)
	}
	return db
}

// TestMaterializeLevelsMatchesPerLevel: the one-pass views equal the
// level-at-a-time reference at every level — rows, supports and widths —
// over in-memory, file-backed and sharded sources, on a tree with shallow
// leaves (no ancestor at level 3) and with items outside the tree.
func TestMaterializeLevelsMatchesPerLevel(t *testing.T) {
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"food", "dairy", "milk"}, {"food", "dairy", "butter"}, {"food", "meat", "pork"},
		{"drink", "beer", "stout"}, {"drink", "beer", "lager"}, {"misc", "gum"}, {"candles"},
	} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr.Dict().ID("mystery") // in the dictionary, not in the tree
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := randomLeafDB(rng, tr, 1+rng.Intn(300), 6)
		db.AddNames("milk", "mystery", "gum", "candles")
		path := filepath.Join(t.TempDir(), "baskets.txt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.WriteBaskets(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs, err := OpenFile(path, tr.Dict())
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]Source{"db": db, "file": fs, "sharded": PartitionSource(db, 3)}
		for name, src := range sources {
			views, err := MaterializeLevels(context.Background(), src, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(views) != tr.Height()+1 || views[0] != nil {
				t.Fatalf("%s: views indexed 0..%d with entry 0 %v", name, len(views)-1, views[0])
			}
			for h := 1; h <= tr.Height(); h++ {
				got, want := views[h], refMaterialize(db, tr, h)
				if got.Level != h || got.MaxWidth != want.MaxWidth || !reflect.DeepEqual(got.Support, want.Support) {
					t.Fatalf("%s trial %d level %d: level/width/supports differ", name, trial, h)
				}
				if !sameSets(got.Tx, want.Tx) {
					t.Fatalf("%s trial %d level %d: rows %v, want %v", name, trial, h, got.Tx, want.Tx)
				}
				single, err := Materialize(src, tr, h)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(single, got) {
					t.Fatalf("%s trial %d level %d: Materialize differs from MaterializeLevels", name, trial, h)
				}
			}
		}
	}
}

// TestMaterializeLevelsCancel: a cancelled context stops the pass with the
// context's error.
func TestMaterializeLevelsCancel(t *testing.T) {
	tr := testTree(t)
	db := randomLeafDB(rand.New(rand.NewSource(1)), tr, 5000, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaterializeLevels(ctx, db, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestColdPathAllocationsFlat pins the arena design: materializing every
// level and deduplicating each costs a number of allocations that does not
// grow with the transaction count. The row pool is fixed, so the distinct
// rows — and with them the dedup table — are the same at n and 8n; only
// the per-transaction allocations the arenas removed could make up the
// difference.
func TestColdPathAllocationsFlat(t *testing.T) {
	tr := testTree(t)
	rng := rand.New(rand.NewSource(9))
	small := randomLeafDB(rng, tr, 1000, 4)
	large := New(tr.Dict())
	for i := 0; i < 8; i++ {
		for j := 0; j < small.Len(); j++ {
			large.AddSet(small.Tx(j))
		}
	}
	allocs := func(db *DB) float64 {
		return testing.AllocsPerRun(5, func() {
			views, err := MaterializeLevels(context.Background(), db, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range views[1:] {
				lv.Dedup()
			}
		})
	}
	n, n8 := allocs(small), allocs(large)
	t.Logf("allocs: %.0f at n=%d, %.0f at 8n", n, small.Len(), n8)
	if n8 > n+8 {
		t.Fatalf("MaterializeLevels+Dedup: %.0f allocs at 8n vs %.0f at n — per-transaction allocation is back", n8, n)
	}
}
