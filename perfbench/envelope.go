package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// volatile holds the wire keys whose values legitimately differ between
// runs over identical inputs, as the core and service layers declare them.
var volatile = func() map[string]bool {
	m := map[string]bool{}
	for _, k := range append(core.VolatileStatsKeys(), service.VolatileWireKeys()...) {
		m[k] = true
	}
	return m
}()

// scrub re-renders a JSON document with sorted keys and every volatile key
// removed, so two envelopes of the same result compare byte for byte.
func scrub(raw []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("envelope is not JSON: %w", err)
	}
	var walk func(any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if volatile[k] {
					delete(x, k)
					continue
				}
				walk(e)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(v)
	return json.Marshal(v)
}

// digestOf hashes scrubbed envelopes in the given order.
func digestOf(envs [][]byte) string {
	h := sha256.New()
	for _, e := range envs {
		h.Write(e)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// decodeResult parses a result envelope (core.ResultJSON).
func decodeResult(raw []byte) (*core.ResultJSON, error) {
	var r core.ResultJSON
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, wrong("bad result envelope: %v", err)
	}
	return &r, nil
}

// flipKey names a pattern by its leaf items and chain labels, e.g.
// "eggs|fresh fish -+-".
func flipKey(leaves []string, labels []string) string {
	l := append([]string(nil), leaves...)
	sort.Strings(l)
	return strings.Join(l, "|") + " " + strings.Join(labels, "")
}

// patternKeys returns the flipKey of every pattern in the envelope.
func patternKeys(r *core.ResultJSON) map[string]bool {
	out := make(map[string]bool, len(r.Patterns))
	for _, p := range r.Patterns {
		chain := append([]core.LevelJSON(nil), p.Chain...)
		sort.Slice(chain, func(i, j int) bool { return chain[i].Level < chain[j].Level })
		labels := make([]string, len(chain))
		for i, l := range chain {
			labels[i] = l.Label
		}
		out[flipKey(p.Leaf, labels)] = true
	}
	return out
}

// recordStats adds the envelope's run counters to the samples.
func recordStats(s *samples, r *core.ResultJSON, envelopeBytes int) {
	st := r.Stats
	s.add("core.candidates_counted", float64(st.CandidatesCounted))
	s.add("core.db_scans", float64(st.DBScans))
	s.add("core.probes_pruned", float64(st.ProbesPruned))
	s.add("core.trie_nodes", float64(st.TrieNodes))
	s.add("core.bitmap_word_ops", float64(st.BitmapWordOps))
	s.add("core.patterns", float64(r.PatternCount))
	s.add("core.frequent_per_candidate", ratio(float64(st.FrequentItemsets), float64(st.CandidatesCounted)))
	s.add("core.alive_per_frequent", ratio(float64(st.AliveItemsets), float64(st.FrequentItemsets)))
	s.add("core.peak_bytes", float64(st.PeakBytes))
	s.add("core.envelope_bytes", float64(envelopeBytes))
}

// recordSketch adds an anchored run's sketch counters to the samples.
func recordSketch(s *samples, r *core.ResultJSON) {
	st := r.Stats
	s.add("sketch.probes", float64(st.SketchProbes))
	s.add("sketch.pruned", float64(st.SketchPruned))
	s.add("sketch.skip_ratio", ratio(float64(st.SketchPruned), float64(st.SketchProbes)))
	s.add("sketch.exact_fallbacks", float64(st.ExactFallbacks))
}

// writeDataset stores a dataset in the flipgen layout: taxonomy.tsv plus
// baskets.txt, or with shards > 1 a shards/ directory of that many basket
// files (flipgen -shards). It returns the baskets' total size.
func writeDataset(dir string, tree *taxonomy.Tree, db *txdb.DB, shards int) (int64, error) {
	var tax bytes.Buffer
	if _, err := tree.WriteTo(&tax); err != nil {
		return 0, err
	}
	files := map[string]*txdb.DB{"baskets.txt": db}
	sub := dir
	if shards > 1 {
		files = map[string]*txdb.DB{}
		for i, part := range txdb.Partition(db, shards) {
			files[filepath.Join("shards", fmt.Sprintf("shard%03d.txt", i))] = part
		}
		sub = filepath.Join(dir, "shards")
	}
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "taxonomy.tsv"), tax.Bytes(), 0o644); err != nil {
		return 0, err
	}
	var total int64
	for name, part := range files {
		var buf bytes.Buffer
		if err := part.WriteBaskets(&buf); err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return 0, err
		}
		total += int64(buf.Len())
	}
	return total, nil
}

// loadDataset reads a dataset written by writeDataset through the public
// entry points the flipper CLI and the flipperd registry use, recording a
// span around each: baskets.txt when present, else the shards/ directory.
func loadDataset(parent active, dir string, dbBytes int64) (*taxonomy.Tree, txdb.Source, error) {
	sp := parent.child("taxonomy.parse")
	f, err := os.Open(filepath.Join(dir, "taxonomy.tsv"))
	if err != nil {
		return nil, nil, err
	}
	tree, err := taxonomy.Parse(f, nil)
	f.Close()
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	if !tree.IsBalanced() {
		tree = tree.Extend()
	}
	sp = parent.child("txdb.load")
	var src txdb.Source
	if _, err = os.Stat(filepath.Join(dir, "baskets.txt")); err == nil {
		src, err = txdb.OpenBasketSource(filepath.Join(dir, "baskets.txt"), tree.Dict(), false)
	} else {
		src, err = txdb.OpenShardDir(filepath.Join(dir, "shards"), tree.Dict(), false)
	}
	sp.endBytes(dbBytes)
	if err != nil {
		return nil, nil, err
	}
	return tree, src, nil
}

// probeLayers times the layers below Mine directly, for the traced run:
// each level's Materialize and Dedup, a cold Mine on a fresh engine, a
// warm Mine of the same configuration, and the envelope encoding.
func probeLayers(root active, s *samples, src txdb.Source, tree *taxonomy.Tree, cfg core.Config) error {
	var distinct, total float64
	for h := 1; h <= tree.Height(); h++ {
		sp := root.child("txdb.materialize")
		lv, err := txdb.Materialize(src, tree, h)
		sp.end()
		if err != nil {
			return err
		}
		sp = root.child("txdb.dedup")
		d := lv.Dedup()
		sp.end()
		distinct += float64(len(d))
		total += float64(len(lv.Tx))
	}
	s.add("txdb.dedup_ratio", ratio(distinct, total))
	eng := core.NewEngine(src, tree)
	sp := root.child("core.cold_mine")
	if _, err := eng.Mine(cfg); err != nil {
		return err
	}
	sp.end()
	sp = root.child("core.warm_mine")
	res, err := eng.Mine(cfg)
	sp.end()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = root.child("core.encode")
	err = res.WriteAPIJSON(&buf, tree)
	sp.endBytes(int64(buf.Len()))
	return err
}
