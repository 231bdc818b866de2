package core

import (
	"fmt"

	"github.com/flipper-mining/flipper/internal/sketch"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Sketch plumbing for anchored search: per-item bottom-k signatures are
// dataset state (they depend only on which transactions of a representation
// hold each item), so they cache in dataState, keyed by signature size. When the engine has a sketch path, unsharded builds
// persist to disk and later engines over the same dataset warm-start from
// the file — a fingerprint over the per-level single supports guards
// against trusting a file built from different data.

// sketchSet returns (building, loading, or reusing) the sketch set for the
// run's signature size. A failed or cancelled build is returned, never
// cached.
func (m *miner) sketchSet() (*sketch.Set, error) {
	k := m.cfg.SketchK
	if k <= 0 {
		k = sketch.DefaultK
	}
	ds := m.ds
	ds.mu.Lock()
	s := ds.sketches[k]
	ds.mu.Unlock()
	if s != nil {
		return s, nil
	}

	fp := m.sketchFingerprint()
	path := m.eng.sketchFile()
	// Persisted sketches are keyed by raw transaction IDs, which only the
	// unsharded representation uses (sharded keys fold the shard index in),
	// so the file is read and written for unsharded runs only.
	if path != "" && !m.ds.sharded() {
		if loaded, err := sketch.LoadFile(path); err == nil &&
			loaded.K == k && loaded.Fingerprint == fp && len(loaded.Levels) == m.height+1 {
			return ds.storeSketches(k, loaded), nil
		}
	}
	s, err := m.buildSketchSet(k, fp)
	if err != nil {
		return nil, err
	}
	if path != "" && !m.ds.sharded() {
		_ = s.SaveFile(path) // best-effort warm-start for the next engine
	}
	return ds.storeSketches(k, s), nil
}

// storeSketches publishes a built sketch set into the dataset cache; when a
// concurrent run won the race, its set wins so every run shares one copy.
func (ds *dataState) storeSketches(k int, s *sketch.Set) *sketch.Set {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.sketches == nil {
		ds.sketches = make(map[int]*sketch.Set)
	}
	if prev := ds.sketches[k]; prev != nil {
		return prev
	}
	ds.sketches[k] = s
	return s
}

// buildSketchSet re-materializes every shard's level views for the length
// of the build and observes each item of each generalized transaction in a
// bottom-k builder per level. Keys fold the shard index into the high half
// so transaction IDs stay distinct across shards; an unsharded dataset's
// keys are therefore its raw transaction IDs. The pass re-reads the source
// and observes the run's context, so it can fail.
func (m *miner) buildSketchSet(k int, fp uint64) (*sketch.Set, error) {
	shardViews, err := txdb.MaterializeShards(m.ctx, m.ds.shards, m.tax, boundWorkers(&m.cfg, len(m.ds.shards)))
	if err != nil {
		return nil, fmt.Errorf("core: building anchored sketches: %w", err)
	}
	H := m.height
	set := &sketch.Set{K: k, Fingerprint: fp, Levels: make([]*sketch.Level, H+1)}
	for h := 1; h <= H; h++ {
		b := sketch.NewBuilder(k)
		for s, views := range shardViews {
			base := uint64(s) << 32
			for ti, tx := range views[h].Tx {
				for _, id := range tx {
					b.Observe(id, base|uint64(ti))
				}
			}
		}
		set.Levels[h] = b.Finish()
	}
	return set, nil
}

// sketchFingerprint identifies the dataset a sketch set was built from: any
// change to a level's single supports — or to the transaction count,
// height, or shard layout — changes it, so a stale sketch file on disk is
// rebuilt rather than trusted. The XOR of per-item hashes keeps the value
// independent of map iteration order. An unsharded dataset hashes a shard
// count of 0, the value sketch files have always carried for it, so files
// saved by earlier builds still warm-start.
func (m *miner) sketchFingerprint() uint64 {
	layout := 0
	if m.ds.sharded() {
		layout = len(m.ds.shards)
	}
	fp := sketch.Hash(uint64(m.n)<<32 ^ uint64(m.height)<<8 ^ uint64(layout))
	for h := 1; h <= m.height; h++ {
		for id, sup := range m.ds.sup1[h] {
			fp ^= sketch.Hash(uint64(h)<<56 ^ uint64(uint32(id))<<24 ^ uint64(sup))
		}
	}
	return fp
}
