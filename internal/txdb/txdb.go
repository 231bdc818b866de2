// Package txdb implements the transactional-database substrate: an in-memory
// transaction store with a shared item dictionary, the basket text format,
// a streaming file-backed source for disk-resident counting (the paper's
// engines count "by sequential scans of disk-resident input data"),
// materialized per-level views that map leaf items to their taxonomy
// generalizations, and transaction sharding — Partition for splitting an
// in-memory database into contiguous shards and ShardedSource for composing
// per-shard sources (including disk-resident FileSources, the out-of-core
// layout) — the data-partitioning layer behind the engine's shard-parallel
// counting.
package txdb

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// Source is a replayable stream of transactions. The mining engine only
// requires sequential passes, so massive inputs can stay on disk.
type Source interface {
	// Scan invokes fn once per transaction, in a stable order. The itemset
	// passed to fn is only valid during the call; clone to retain.
	Scan(fn func(tx itemset.Set) error) error
	// Len returns the number of transactions.
	Len() int
	// Dict returns the dictionary resolving the item IDs used in Scan.
	Dict() *dict.Dictionary
}

// DB is an in-memory transaction database over leaf items. It implements
// Source. The zero value is not usable; construct with New.
type DB struct {
	dict *dict.Dictionary
	tx   []itemset.Set
}

// New returns an empty database writing IDs through d (nil for a fresh
// dictionary).
func New(d *dict.Dictionary) *DB {
	if d == nil {
		d = dict.New()
	}
	return &DB{dict: d}
}

// Dict returns the database's dictionary.
func (db *DB) Dict() *dict.Dictionary { return db.dict }

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.tx) }

// Add appends a transaction. The input is canonicalized (sorted,
// deduplicated); empty transactions are kept, matching the paper's market
// baskets which may be empty after filtering.
func (db *DB) Add(items ...itemset.ID) {
	db.tx = append(db.tx, itemset.New(items...))
}

// AddSet appends an already-canonical transaction without copying.
func (db *DB) AddSet(s itemset.Set) {
	db.tx = append(db.tx, s)
}

// AddNames appends a transaction given item names, assigning IDs as needed.
func (db *DB) AddNames(names ...string) {
	ids := make([]itemset.ID, len(names))
	for i, n := range names {
		ids[i] = db.dict.ID(n)
	}
	db.Add(ids...)
}

// Tx returns transaction i. The returned set is owned by the database.
func (db *DB) Tx(i int) itemset.Set { return db.tx[i] }

// Scan implements Source.
func (db *DB) Scan(fn func(tx itemset.Set) error) error {
	for _, t := range db.tx {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Shuffle permutes transaction order deterministically from seed; used by
// generators to avoid artificial ordering artifacts.
func (db *DB) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(db.tx), func(i, j int) { db.tx[i], db.tx[j] = db.tx[j], db.tx[i] })
}

// MapLeaves rewrites every transaction through the leaf mapping produced by
// taxonomy.Tree.Truncate: items present in m are replaced, items absent from
// m are dropped. A new database sharing the dictionary is returned.
func (db *DB) MapLeaves(m map[itemset.ID]itemset.ID) *DB {
	out := New(db.dict)
	for _, t := range db.tx {
		mapped := make([]itemset.ID, 0, len(t))
		for _, id := range t {
			if nid, ok := m[id]; ok {
				mapped = append(mapped, nid)
			}
		}
		out.Add(mapped...)
	}
	return out
}

// Stats summarizes a database for experiment logs.
type Stats struct {
	Transactions  int
	DistinctItems int
	TotalItems    int64
	MaxWidth      int
	AvgWidth      float64
}

// ComputeStats scans the source once and reports summary statistics.
func ComputeStats(src Source) (Stats, error) {
	var s Stats
	distinct := make(map[itemset.ID]struct{})
	err := src.Scan(func(tx itemset.Set) error {
		s.Transactions++
		s.TotalItems += int64(len(tx))
		if len(tx) > s.MaxWidth {
			s.MaxWidth = len(tx)
		}
		for _, id := range tx {
			distinct[id] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	s.DistinctItems = len(distinct)
	if s.Transactions > 0 {
		s.AvgWidth = float64(s.TotalItems) / float64(s.Transactions)
	}
	return s, nil
}

func (s Stats) String() string {
	return fmt.Sprintf("%d transactions, %d distinct items, avg width %.2f, max width %d",
		s.Transactions, s.DistinctItems, s.AvgWidth, s.MaxWidth)
}

// LevelView is a database materialized at one abstraction level: every leaf
// item replaced by its level-h ancestor, duplicates merged. It also carries
// the level's single-item supports, which the engine needs both for
// candidate filtering and for every correlation computation at the level.
type LevelView struct {
	Level   int
	Tx      []itemset.Set
	Support map[itemset.ID]int64
	// MaxWidth is the widest generalized transaction, bounding the itemset
	// size k worth exploring at this level.
	MaxWidth int
}

// Materialize builds the level-h view of src under tree. Items without an
// ancestor at level h (shallow leaves of an unextended, unbalanced tree) are
// dropped from the view, mirroring the paper's requirement that the user
// resolves missing generalizations (taxonomy.Tree.Extend is variant B).
func Materialize(src Source, tree *taxonomy.Tree, h int) (*LevelView, error) {
	if h < 1 || h > tree.Height() {
		return nil, fmt.Errorf("txdb: level %d out of range 1..%d", h, tree.Height())
	}
	views, err := materialize(context.Background(), src, tree, h, h)
	if err != nil {
		return nil, err
	}
	return views[h], nil
}

// MaterializeLevels builds the views of src at every level 1..Height of
// tree in one pass over the transactions, returned indexed by level (entry
// 0 is nil). Each view equals Materialize's. The pass observes ctx every
// 1024 transactions and returns ctx.Err() once it is cancelled.
func MaterializeLevels(ctx context.Context, src Source, tree *taxonomy.Tree) ([]*LevelView, error) {
	return materialize(ctx, src, tree, 1, tree.Height())
}

// materialize builds the views of levels lo..hi in one scan. Generalized
// transactions are carved out of per-level chunked arenas behind presized
// row slices, and supports are counted in dense per-level arrays indexed by
// item ID (every ancestor is a node of tree, so its ID is below the tree
// dictionary's size) that become the Support maps once, at the end.
func materialize(ctx context.Context, src Source, tree *taxonomy.Tree, lo, hi int) ([]*LevelView, error) {
	type level struct {
		arena idArena
		buf   []itemset.ID
		sup   []int64
	}
	views := make([]*LevelView, hi+1)
	levels := make([]level, hi+1)
	items := tree.Dict().Len()
	for h := lo; h <= hi; h++ {
		views[h] = &LevelView{Level: h, Tx: make([]itemset.Set, 0, src.Len())}
		levels[h] = level{buf: make([]itemset.ID, 0, 32), sup: make([]int64, items)}
	}
	seen := 0
	err := src.Scan(func(tx itemset.Set) error {
		if seen++; seen&1023 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		for _, id := range tx {
			anc := tree.Ancestors(id)
			if anc == nil {
				continue
			}
			for h := lo; h <= hi; h++ {
				if a := anc[h]; a != taxonomy.NoParent {
					levels[h].buf = append(levels[h].buf, a)
				}
			}
		}
		for h := lo; h <= hi; h++ {
			lv, l := views[h], &levels[h]
			g := l.arena.add(itemset.Canon(l.buf))
			l.buf = l.buf[:0]
			lv.Tx = append(lv.Tx, g)
			if len(g) > lv.MaxWidth {
				lv.MaxWidth = len(g)
			}
			for _, id := range g {
				l.sup[id]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for h := lo; h <= hi; h++ {
		views[h].Support = supportMap(levels[h].sup)
	}
	return views, nil
}

// supportMap converts dense per-ID counts into the sparse Support map.
func supportMap(counts []int64) map[itemset.ID]int64 {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	m := make(map[itemset.ID]int64, n)
	for id, c := range counts {
		if c > 0 {
			m[itemset.ID(id)] = c
		}
	}
	return m
}

// arenaChunk is the item capacity of one idArena chunk: 32 KiB, the largest
// small-object size class, so a half-used last chunk wastes little.
const arenaChunk = 1 << 13

// idArena stores many small itemsets in a few large chunks: storing n
// transactions costs one allocation per arenaChunk items instead of one per
// transaction, and leaves the garbage collector a handful of objects to
// scan rather than n.
type idArena struct{ buf []itemset.ID }

// add copies s into the arena and returns the copy, capped so that an
// append to it can never overwrite a neighbour. The empty set stays nil.
func (a *idArena) add(s itemset.Set) itemset.Set {
	if len(s) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(s) {
		a.buf = make([]itemset.ID, 0, max(arenaChunk, len(s)))
	}
	lo := len(a.buf)
	a.buf = append(a.buf, s...)
	return itemset.Set(a.buf[lo:len(a.buf):len(a.buf)])
}

// WeightedTx is a distinct transaction with its multiplicity. Generalizing
// to a high abstraction level collapses many raw transactions onto few
// distinct item combinations, so counting over the deduplicated view is the
// single most effective optimization for the upper rows of the search table.
type WeightedTx struct {
	Items  itemset.Set
	Weight int64
}

// Dedup merges identical transactions of the view into weighted ones,
// ordered deterministically in lexicographic itemset order (the same order
// the former key-string sort produced). Rows are grouped through an
// open-addressing table keyed by a hash of their IDs, with Equal settling
// hash collisions, so only the distinct rows — a small fraction of the
// view at the upper levels — are sorted, by integer keys packing their
// leading items.
func (lv *LevelView) Dedup() []WeightedTx { return dedup(lv.Tx, hashSet) }

// group is one distinct row while dedup runs: the index of its first
// occurrence and its count so far, plus a word that holds the row's hash
// while rows are grouped and its sort key once they are.
type group struct {
	word        uint64
	row, weight int32
}

// dedup is Dedup over rows with the row hash as a parameter, so tests can
// force hash collisions between unequal rows.
func dedup(rows []itemset.Set, hash func(itemset.Set) uint64) []WeightedTx {
	if len(rows) == 0 {
		return nil
	}
	var groups []group
	var maxID itemset.ID
	table := make([]int32, 1024) // 1 + index into groups; 0 marks an empty slot
	for r, tx := range rows {
		hv := hash(tx)
		mask := uint64(len(table) - 1)
		for i := hv & mask; ; i = (i + 1) & mask {
			g := table[i] - 1
			if g < 0 {
				table[i] = int32(len(groups)) + 1
				groups = append(groups, group{word: hv, row: int32(r), weight: 1})
				if len(tx) > 0 {
					maxID = max(maxID, tx[len(tx)-1])
				}
				if 2*len(groups) > len(table) {
					table = rehash(groups, 2*len(table))
				}
				break
			}
			if groups[g].word == hv && rows[groups[g].row].Equal(tx) {
				groups[g].weight++
				break
			}
		}
	}
	setSortKeys(groups, rows, maxID)
	slices.SortFunc(groups, func(a, b group) int {
		if a.word != b.word {
			return cmp.Compare(a.word, b.word)
		}
		return itemset.Compare(rows[a.row], rows[b.row])
	})
	out := make([]WeightedTx, len(groups))
	for i, g := range groups {
		out[i] = WeightedTx{Items: rows[g.row], Weight: int64(g.weight)}
	}
	return out
}

// rehash rebuilds the dedup table at size slots (a power of two) from the
// groups' hashes; groups keep their indexes.
func rehash(groups []group, size int) []int32 {
	table := make([]int32, size)
	mask := uint64(size - 1)
	for g := range groups {
		i := groups[g].word & mask
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = int32(g) + 1
	}
	return table
}

// setSortKeys replaces every group's hash with a key packing its row's
// leading items, each offset by one so that a missing item orders first,
// in the fewest bits that hold maxID+1. Key order agrees with
// itemset.Compare wherever keys differ; equal keys mean equal leading
// items. With a small item universe the key covers the widest row and no
// tie remains.
func setSortKeys(groups []group, rows []itemset.Set, maxID itemset.ID) {
	width := bits.Len32(uint32(maxID) + 1)
	for i := range groups {
		var key uint64
		shift := 64
		for _, id := range rows[groups[i].row] {
			if shift -= width; shift < 0 {
				break
			}
			key |= uint64(uint32(id)+1) << shift
		}
		groups[i].word = key
	}
}

// hashSet is a 64-bit hash of an itemset's IDs (multiply-xorshift per
// item, murmur3's finalizer at the end), so the low bits the dedup table
// masks with depend on every item.
func hashSet(s itemset.Set) uint64 {
	h := uint64(len(s))
	for _, id := range s {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// SupportOf returns the level view's support for an itemset by scanning the
// materialized transactions; a reference implementation used by tests and by
// the harness to verify engine counts.
func (lv *LevelView) SupportOf(s itemset.Set) int64 {
	var sup int64
	for _, tx := range lv.Tx {
		if s.SubsetOf(tx) {
			sup++
		}
	}
	return sup
}
