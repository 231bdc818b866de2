package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// rankedFingerprint renders a pattern list order-sensitively — unlike
// fingerprint, which sorts its lines — because anchored results are ranked
// and the ranking itself is part of the contract under test.
func rankedFingerprint(pats []Pattern, tree *taxonomy.Tree) string {
	var sb strings.Builder
	for _, p := range pats {
		fmt.Fprintf(&sb, "gap=%.9f|", p.Gap)
		for _, li := range p.Chain {
			fmt.Fprintf(&sb, "L%d%s|%d|%.9f|%s;", li.Level, tree.FormatSet(li.Items), li.Support, li.Corr, li.Label)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// anchoredReference computes the anchored top-K answer the slow way: filter
// the full exact pattern set down to chains through the anchor, then rank
// by gap and truncate — the definition guaranteed mode must reproduce.
func anchoredReference(full *Result, tree *taxonomy.Tree, anchor string, topK int) []Pattern {
	id, ok := tree.Dict().Lookup(anchor)
	if !ok {
		panic("reference anchor not in dictionary")
	}
	la := tree.LevelOf(id)
	var kept []Pattern
	for _, p := range full.Patterns {
		if p.Chain[la-1].Items.Contains(id) {
			kept = append(kept, p)
		}
	}
	return rankAnchored(kept, topK)
}

// TestAnchoredTopKMatchesExact is the acceptance property of the anchored
// query path: in guaranteed mode, across every counting strategy, every
// pruning level and shard counts 1, 2 and 7, the sketch-pruned anchored
// search returns byte-identically what filtering and ranking the full exact
// mine returns — same patterns, same order, same supports, correlations and
// labels. Like TestShardedMiningEquivalence it runs under the CI race job
// (go test -race ./...), so the shared sketch cache is raced on every PR.
func TestAnchoredTopKMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	shardCounts := []int{1, 2, 7}
	strategies := []CountStrategy{CountScan, CountBitmap, CountAuto}
	anchors := []string{"c0", "c1.0", "c0.1.1"} // level 1, 2 and leaf anchors
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		base := Config{
			Measure:     measure.Kulczynski,
			Gamma:       0.3,
			Epsilon:     0.1,
			MinSupAbs:   []int64{2, 1, 1},
			Materialize: true,
		}
		full, err := Mine(db, tree, base)
		if err != nil {
			t.Fatalf("trial %d: full mine: %v", trial, err)
		}
		for _, anchor := range anchors {
			topK := 1 + rng.Intn(4)
			want := rankedFingerprint(anchoredReference(full, tree, anchor, topK), tree)
			for _, pruning := range Levels() {
				for _, strategy := range strategies {
					for _, shards := range shardCounts {
						cfg := base
						cfg.Pruning = pruning
						cfg.Strategy = strategy
						cfg.Shards = shards
						cfg.Anchor = anchor
						cfg.AnchorTopK = topK
						res, err := Mine(db, tree, cfg)
						if err != nil {
							t.Fatalf("trial %d anchor=%q %v/%v shards=%d: %v",
								trial, anchor, pruning, strategy, shards, err)
						}
						got := rankedFingerprint(res.Patterns, tree)
						if got != want {
							t.Fatalf("trial %d: anchored %q %v/%v shards=%d diverged from exact.\nexact:\n%s\nanchored:\n%s",
								trial, anchor, pruning, strategy, shards, want, got)
						}
						if res.Stats.SketchProbes == 0 && len(full.Patterns) > 0 {
							t.Fatalf("trial %d anchor=%q: materialized anchored run probed no sketches", trial, anchor)
						}
						if res.Stats.SketchPruned+res.Stats.ExactFallbacks > res.Stats.SketchProbes {
							t.Fatalf("trial %d: sketch counters inconsistent: %d pruned + %d fallbacks > %d probes",
								trial, res.Stats.SketchPruned, res.Stats.ExactFallbacks, res.Stats.SketchProbes)
						}
						for _, p := range res.Patterns {
							if p.Confidence != 0 {
								t.Fatalf("trial %d: guaranteed mode leaked confidence %v", trial, p.Confidence)
							}
						}
					}
				}
				// Streaming fallback: no tid lists to sketch, exact filter path.
				cfg := base
				cfg.Materialize = false
				cfg.Pruning = pruning
				cfg.Anchor = anchor
				cfg.AnchorTopK = topK
				res, err := Mine(db, tree, cfg)
				if err != nil {
					t.Fatalf("trial %d anchor=%q streaming %v: %v", trial, anchor, pruning, err)
				}
				if got := rankedFingerprint(res.Patterns, tree); got != want {
					t.Fatalf("trial %d: streaming anchored %q %v diverged from exact.\nexact:\n%s\nanchored:\n%s",
						trial, anchor, pruning, want, got)
				}
				if res.Stats.SketchProbes != 0 {
					t.Fatalf("trial %d: streaming fallback reported %d sketch probes", trial, res.Stats.SketchProbes)
				}
			}
		}
	}
}

// TestAnchoredBestEffortSound pins what best-effort mode may and may not
// do: it may drop patterns the sketch estimates ruled out, but every
// pattern it does return must be a real pattern with its exact chain, must
// appear in the guaranteed answer for the same K, and must carry a
// confidence in (0, 1].
func TestAnchoredBestEffortSound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:     measure.Kulczynski,
			Gamma:       0.3,
			Epsilon:     0.1,
			MinSupAbs:   []int64{2, 1, 1},
			Materialize: true,
			Anchor:      "c0",
			AnchorTopK:  5,
			SketchK:     4, // tiny signatures force wide brackets and real estimating
		}
		exact, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		exactSet := make(map[string]bool)
		for _, p := range exact.Patterns {
			exactSet[rankedFingerprint([]Pattern{p}, tree)] = true
		}
		c := cfg
		c.AnchorMode = AnchorBestEffort
		approx, err := Mine(db, tree, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx.Patterns) > len(exact.Patterns) {
			t.Fatalf("trial %d: best-effort invented patterns: %d > %d exact",
				trial, len(approx.Patterns), len(exact.Patterns))
		}
		for _, p := range approx.Patterns {
			conf := p.Confidence
			p.Confidence = 0
			if !exactSet[rankedFingerprint([]Pattern{p}, tree)] {
				t.Fatalf("trial %d: best-effort returned a pattern outside the exact top-K:\n%s",
					trial, p.Format(tree))
			}
			if conf <= 0 || conf > 1 {
				t.Fatalf("trial %d: best-effort confidence %v outside (0, 1]", trial, conf)
			}
		}
	}
}

// TestAnchoredUnknownAnchor pins the error contract for anchors that name
// no taxonomy item.
func TestAnchoredUnknownAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, tree := randomDataset(rng)
	cfg := DefaultConfig(tree.Height())
	cfg.Anchor = "no-such-item"
	cfg.AnchorTopK = 3
	_, err := Mine(db, tree, cfg)
	if !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("unknown anchor: got %v, want ErrUnknownAnchor", err)
	}
}

// TestAnchoredConfigValidation covers the anchored knob surface of
// Config.Validate.
func TestAnchoredConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.AnchorTopK = 3 },                  // anchor_top_k without anchor
		func(c *Config) { c.AnchorMode = AnchorBestEffort },   // anchor_mode without anchor
		func(c *Config) { c.SketchK = 64 },                    // sketch_k without anchor
		func(c *Config) { c.Anchor = "x" },                    // anchor without anchor_top_k
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = -1 }, // bad K
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = 2; c.AnchorMode = "psychic" },
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = 2; c.SketchK = -5 },
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = 2; c.TopK = 4 }, // mutually exclusive
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(3)
		mutate(&cfg)
		if err := cfg.Validate(3, 100); err == nil {
			t.Fatalf("case %d: invalid anchored config validated: %+v", i, cfg)
		}
	}
	cfg := DefaultConfig(3)
	cfg.Anchor = "x"
	cfg.AnchorTopK = 2
	cfg.AnchorMode = AnchorBestEffort
	cfg.SketchK = 128
	if err := cfg.Validate(3, 100); err != nil {
		t.Fatalf("valid anchored config rejected: %v", err)
	}
}

// TestAnchoredCanonicalKey pins cache-key behavior: non-anchored keys keep
// their exact pre-anchor bytes, anchored keys separate by anchor, K, mode
// and sketch size, and "" normalizes to guaranteed.
func TestAnchoredCanonicalKey(t *testing.T) {
	plain := DefaultConfig(3)
	if k := plain.CanonicalKey(); strings.Contains(k, "anchor") {
		t.Fatalf("non-anchored key mentions anchor: %s", k)
	}
	a := DefaultConfig(3)
	a.Anchor = "x"
	a.AnchorTopK = 3
	b := a
	b.AnchorMode = AnchorGuaranteed
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("default mode and explicit guaranteed split the cache:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
	c := a
	c.AnchorMode = AnchorBestEffort
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Fatal("best-effort shares a cache entry with guaranteed")
	}
	d := a
	d.AnchorTopK = 4
	if a.CanonicalKey() == d.CanonicalKey() {
		t.Fatal("different AnchorTopK shares a cache entry")
	}
}

// TestAnchoredSketchPersistence checks the warm-start file: an anchored run
// saves sketches next to the dataset, a fresh engine loads them and answers
// identically, and a corrupt or mismatched file is rebuilt, not trusted.
func TestAnchoredSketchPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db, tree := randomDataset(rng)
	path := filepath.Join(t.TempDir(), "sketches.bin")
	cfg := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{2, 1, 1},
		Materialize: true,
		Anchor:      "c0",
		AnchorTopK:  3,
	}
	eng := NewEngine(db, tree)
	eng.SetSketchPath(path)
	res, err := eng.Mine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := rankedFingerprint(res.Patterns, tree)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("anchored run left no sketch file: %v", err)
	}

	// A fresh engine over the same dataset warm-starts from the file.
	eng2 := NewEngine(db, tree)
	eng2.SetSketchPath(path)
	res2, err := eng2.Mine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankedFingerprint(res2.Patterns, tree); got != want {
		t.Fatalf("warm-started engine diverged.\ncold:\n%s\nwarm:\n%s", want, got)
	}

	// Corruption is detected and the sketches rebuilt.
	if err := os.WriteFile(path, []byte("definitely not a sketch file"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng3 := NewEngine(db, tree)
	eng3.SetSketchPath(path)
	res3, err := eng3.Mine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankedFingerprint(res3.Patterns, tree); got != want {
		t.Fatalf("corrupt-file rebuild diverged.\ncold:\n%s\nrebuilt:\n%s", want, got)
	}

	// A file built from a different dataset fails the fingerprint check.
	db2, tree2 := randomDataset(rng)
	eng4 := NewEngine(db2, tree2)
	eng4.SetSketchPath(path)
	full, err := Mine(db2, tree2, Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{2, 1, 1}, Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := eng4.Mine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOther := rankedFingerprint(anchoredReference(full, tree2, "c0", 3), tree2)
	if got := rankedFingerprint(res4.Patterns, tree2); got != wantOther {
		t.Fatalf("foreign sketch file poisoned the run.\nexact:\n%s\nanchored:\n%s", wantOther, got)
	}
}

// TestAnchoredShardedSource covers anchored mining over an explicit
// ShardedSource, where sketch keys fold the shard index in.
func TestAnchoredShardedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db, tree := randomDataset(rng)
	base := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{2, 1, 1},
		Materialize: true,
	}
	full, err := Mine(db, tree, base)
	if err != nil {
		t.Fatal(err)
	}
	want := rankedFingerprint(anchoredReference(full, tree, "c1", 3), tree)
	cfg := base
	cfg.Anchor = "c1"
	cfg.AnchorTopK = 3
	res, err := Mine(txdb.PartitionSource(db, 3), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankedFingerprint(res.Patterns, tree); got != want {
		t.Fatalf("anchored over ShardedSource diverged.\nexact:\n%s\nanchored:\n%s", want, got)
	}
	if res.Stats.Shards != 3 {
		t.Fatalf("ShardedSource anchored run reports %d shards, want 3", res.Stats.Shards)
	}
}
