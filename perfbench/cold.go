package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
)

// groceriesScale makes the GROCERIES simulator 20× the paper's 9,800
// transactions, large enough that loading and preparing the data take
// most of a cold mine.
const groceriesScale = 20

// coldBench is cold-groceries: one client repeating what the flipper CLI
// does with -json-api — parse the taxonomy file, load the basket file,
// mine with a fresh engine, encode the envelope.
type coldBench struct {
	e       *env
	dir     string
	dbBytes int64
	cfg     core.Config
	want    map[string]bool
	tx, h   int

	mu    sync.Mutex
	first []byte // scrubbed envelope every operation must reproduce
}

func setupCold(e *env, rep int, tr *tracer) (bench, error) {
	ds, err := datasets.Groceries(groceriesScale, e.seed)
	if err != nil {
		return nil, err
	}
	b := &coldBench{e: e, dir: filepath.Join(e.dir, fmt.Sprintf("groceries-%d", rep)), cfg: ds.Config(),
		want: map[string]bool{}, tx: ds.DB.Len(), h: ds.Tree.Height()}
	for _, f := range ds.Expected {
		b.want[flipKey([]string{f.LeafA, f.LeafB}, f.Labels)] = true
	}
	if b.dbBytes, err = writeDataset(b.dir, ds.Tree, ds.DB, 1); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *coldBench) clients() int { return 1 }

func (b *coldBench) op(_ int, _ int64, root active) (string, error) {
	tree, src, err := loadDataset(root, b.dir, b.dbBytes)
	if err != nil {
		return "cold", err
	}
	sp := root.child("core.cold_mine")
	res, err := core.NewEngine(src, tree).Mine(b.cfg)
	sp.end()
	if err != nil {
		return "cold", err
	}
	var buf bytes.Buffer
	sp = root.child("core.encode")
	err = res.WriteAPIJSON(&buf, tree)
	sp.endBytes(int64(buf.Len()))
	if err != nil {
		return "cold", err
	}
	return "cold", b.check(buf.Bytes())
}

// check demands exactly the simulator's planted patterns, and the same
// scrubbed envelope as the first operation.
func (b *coldBench) check(raw []byte) error {
	r, err := decodeResult(raw)
	if err != nil {
		return err
	}
	got := patternKeys(r)
	if len(got) != len(b.want) || r.PatternCount != len(b.want) {
		return wrong("%d patterns, want the %d planted ones", r.PatternCount, len(b.want))
	}
	for k := range b.want {
		if !got[k] {
			return wrong("planted pattern %s missing", k)
		}
	}
	recordStats(b.e.s, r, len(raw))
	env, err := scrub(raw)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		b.first = env
	} else if !bytes.Equal(env, b.first) {
		return wrong("envelope differs from the first operation's")
	}
	return nil
}

func (b *coldBench) probe(tr *tracer) error {
	for i := 0; i < 3; i++ {
		root := tr.root("probe")
		tree, src, err := loadDataset(root, b.dir, b.dbBytes)
		if err == nil {
			err = probeLayers(root, b.e.s, src, tree, b.cfg)
		}
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *coldBench) verify(*tracer) (int, error) { return 0, nil }

func (b *coldBench) provenance() map[string]any {
	return map[string]any{"transactions": b.tx, "taxonomy_height": b.h, "basket_bytes": b.dbBytes,
		"config": b.cfg, "planted_patterns": sortedKeys(b.want)}
}

func (b *coldBench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return digestOf([][]byte{b.first})
}

func (b *coldBench) close() { os.RemoveAll(b.dir) }
