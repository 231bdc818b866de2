package core_test

// Cancellation tests live in an external test package so they can drive the
// engine through the dense benchmark workload in internal/experiments
// (which itself imports core).

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

func denseCfg(strategy core.CountStrategy) core.Config {
	return core.Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{2, 1},
		Pruning:     core.Full,
		Strategy:    strategy,
		Materialize: true,
	}
}

func denseWorkload(t *testing.T, n int) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	db, tree, err := experiments.DenseWorkload(n, 10, 8, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	return db, tree
}

// TestCancellationLatency is the acceptance property of the checkpoint
// design: a CPU-bound mine over a dense workload must observe cancellation
// and return within 100ms. The workload escalates until the mine is still
// running when the cancel fires, so a fast machine cannot make the test
// vacuous.
func TestCancellationLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const bound = 100 * time.Millisecond
	for _, n := range []int{6000, 24000, 96000} {
		db, tree := denseWorkload(t, n)
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			err     error
			latency time.Duration
		}
		res := make(chan outcome, 1)
		var cancelledAt time.Time
		go func() {
			_, err := core.MineContext(ctx, db, tree, denseCfg(core.CountScan))
			res <- outcome{err: err, latency: time.Since(cancelledAt)}
		}()
		time.Sleep(25 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
		out := <-res
		if out.err == nil {
			// The mine beat the cancel; try a workload large enough that it
			// cannot.
			continue
		}
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want wrapped context.Canceled", n, out.err)
		}
		if out.latency > bound {
			t.Fatalf("n=%d: mine took %s to observe cancellation, want < %s", n, out.latency, bound)
		}
		return
	}
	t.Fatal("every workload finished before the cancel fired; latency was never measured")
}

// TestCancellationDuringPrep extends the latency promise to data
// preparation: on GROCERIES-sim ×20, where building the level views and
// deduplicating them is nearly the whole cold mine, a cancel fired 25ms in
// must be observed within 100ms — unsharded and sharded. The abandoned
// build must not be cached: a follow-up Mine on the same engine rebuilds
// and finds the planted patterns.
func TestCancellationDuringPrep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const bound = 100 * time.Millisecond
	measured := false
	for _, scale := range []float64{20, 40} {
		ds, err := datasets.Groceries(scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 2} {
			cfg := ds.Config()
			cfg.Shards = shards
			eng := core.NewEngine(ds.DB, ds.Tree)
			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				err     error
				latency time.Duration
			}
			res := make(chan outcome, 1)
			var cancelledAt time.Time
			go func() {
				_, err := eng.MineContext(ctx, cfg)
				res <- outcome{err: err, latency: time.Since(cancelledAt)}
			}()
			time.Sleep(25 * time.Millisecond)
			cancelledAt = time.Now()
			cancel()
			out := <-res
			if out.err == nil {
				continue // prep beat the cancel; try a larger database
			}
			measured = true
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("×%v shards=%d: err = %v, want wrapped context.Canceled", scale, shards, out.err)
			}
			if out.latency > bound {
				t.Fatalf("×%v shards=%d: prep took %s to observe cancellation, want < %s", scale, shards, out.latency, bound)
			}
			again, err := eng.Mine(cfg)
			if err != nil {
				t.Fatalf("×%v shards=%d: Mine after a cancelled prep: %v", scale, shards, err)
			}
			if len(again.Patterns) != len(ds.Expected) {
				t.Fatalf("×%v shards=%d: Mine after a cancelled prep found %d patterns, want the %d planted",
					scale, shards, len(again.Patterns), len(ds.Expected))
			}
		}
		if measured {
			return
		}
	}
	t.Fatal("every prep finished before the cancel fired; latency was never measured")
}

// pausingSource pauses its first Scan after 2048 transactions until the
// test releases it, so a test can cancel the run building an engine's
// dataset state at a known point.
type pausingSource struct {
	*txdb.DB
	paused, release chan struct{}
	once            sync.Once
}

func (p *pausingSource) Scan(fn func(itemset.Set) error) error {
	first := false
	p.once.Do(func() { first = true })
	seen := 0
	return p.DB.Scan(func(tx itemset.Set) error {
		if seen++; first && seen == 2048 {
			close(p.paused)
			<-p.release
		}
		return fn(tx)
	})
}

// TestCancelledPrepSparesConcurrentRuns: runs sharing one engine wait on
// the same dataset build. When the run building it is cancelled, the
// others must not inherit the cancellation: one of them rebuilds, and all
// of them return the result a fresh engine gives.
func TestCancelledPrepSparesConcurrentRuns(t *testing.T) {
	ds, err := datasets.Groceries(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ds.Config()
	want, err := core.Mine(ds.DB, ds.Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &pausingSource{DB: ds.DB, paused: make(chan struct{}), release: make(chan struct{})}
	eng := core.NewEngine(src, ds.Tree)
	ctx, cancel := context.WithCancel(context.Background())
	builder := make(chan error, 1)
	go func() {
		_, err := eng.MineContext(ctx, cfg)
		builder <- err
	}()
	<-src.paused // the builder now holds the build
	waiters := make(chan error, 3)
	for i := 0; i < cap(waiters); i++ {
		go func() {
			res, err := eng.Mine(cfg)
			if err == nil && !reflect.DeepEqual(res.Patterns, want.Patterns) {
				err = errors.New("patterns differ from a fresh engine's")
			}
			waiters <- err
		}()
	}
	cancel()
	close(src.release)
	if err := <-builder; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder: err = %v, want wrapped context.Canceled", err)
	}
	for i := 0; i < cap(waiters); i++ {
		if err := <-waiters; err != nil {
			t.Fatalf("run waiting on the cancelled build: %v", err)
		}
	}
}

// TestMineContextPreCancelled pins the fast path: an already-cancelled
// context aborts before any data preparation.
func TestMineContextPreCancelled(t *testing.T) {
	db, tree := denseWorkload(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.MineContext(ctx, db, tree, denseCfg(core.CountScan)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestMineContextDeadline pins that a deadline surfaces as
// context.DeadlineExceeded, distinguishable from an explicit cancel.
func TestMineContextDeadline(t *testing.T) {
	db, tree := denseWorkload(t, 24000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := core.MineContext(ctx, db, tree, denseCfg(core.CountScan))
	if err == nil {
		t.Skip("mine finished inside a 10ms deadline; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestMineContextCancelAllStrategies drives every counting backend through a
// cancelled run: each must abort with the context error, not hang or return
// partial results.
func TestMineContextCancelAllStrategies(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	for _, strategy := range []core.CountStrategy{core.CountScan, core.CountTIDList, core.CountBitmap} {
		for _, shards := range []int{0, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				cfg := denseCfg(strategy)
				cfg.Shards = shards
				res, err := core.MineContext(ctx, db, tree, cfg)
				if err == nil && res == nil {
					err = errors.New("nil result without error")
				}
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				// A fast run may legitimately finish before the cancel.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("%v shards=%d: err = %v, want nil or context.Canceled", strategy, shards, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%v shards=%d: mine hung after cancel", strategy, shards)
			}
		}
	}
}

// TestEpsilonSweepContextCancel pins that a sweep aborts between steps.
func TestEpsilonSweepContextCancel(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := core.EpsilonSweepContext(ctx, db, tree, denseCfg(core.CountScan),
			[]float64{0.29, 0.25, 0.2, 0.15, 0.1, 0.05})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep hung after cancel")
	}
}

// TestSuggestEpsilonContextCancel pins that the ε bisection aborts when its
// context is cancelled mid-search.
func TestSuggestEpsilonContextCancel(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := core.SuggestEpsilonContext(ctx, db, tree, denseCfg(core.CountScan), 10)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bisection hung after cancel")
	}
}
