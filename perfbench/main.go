// Command perfbench runs one benchmark workload against the flipper mining
// stack and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload cold-groceries --seed 1 --seconds 20 --trace 0 --dir .bench_build
//
// --trace 0 prints the end-to-end metrics; --trace 1 traces every other
// operation, then prints the per-layer metrics and the tracing overhead. See README.md for the workloads and metrics; run.sh
// builds the program and calls it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how often a run sets its workload up; setup_s is the median
// of their CPU times. A set-up takes well under a second, so one sample
// would be mostly noise.
const setupReps = 5

// env is what every workload's set-up receives.
type env struct {
	seed int64
	dir  string // scratch directory for generated datasets, removed at exit
	s    *samples
}

// bench is one set-up workload: the system under test plus its client.
type bench interface {
	clients() int
	// op performs operation seq (numbered across clients) and checks its
	// output. A non-nil error counts the operation as failed.
	op(client int, seq int64, root active) (class string, err error)
	// probe times layer calls directly, for the traced run only.
	probe(tr *tracer) error
	// verify runs the checks that need the whole run's outputs and returns
	// how many operations they found wrong.
	verify(tr *tracer) (failed int, err error)
	// provenance describes the inputs; digest hashes the checked outputs.
	provenance() map[string]any
	digest() string
	close()
}

type workload struct {
	name, why string
	setup     func(e *env, rep int, tr *tracer) (bench, error)
}

var workloads = []workload{
	{"cold-groceries", "text files to envelope, as the flipper CLI: load and prep dominate, counting is <1%", setupCold},
	{"serve-dense", "warm flipperd: fresh mines, cache-hit resubmissions and anchored top-K on one engine", setupServe},
	{"cluster-dense", "coordinator with 2 loopback workers: shard dispatch on the blocking path of every mine", setupCluster},
}

type opResult struct {
	class  string
	lat    time.Duration
	err    error
	traced bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	dir := fs.String("dir", ".bench_build", "directory for generated inputs and trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", names())
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return fmt.Sprint(ns)
}

func run(w *workload, seed int64, dur time.Duration, traced bool, dir string) (*result, error) {
	scratch := filepath.Join(dir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, dir: scratch, s: newSamples()}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var b bench
	var setupCPU, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		if b != nil {
			b.close()
		}
		t0, c0 := time.Now(), cpuTime()
		nb, err := w.setup(e, rep, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	// One unmeasured operation per client opens connections and grows the
	// heap; its output is still checked.
	var seq atomic.Int64
	warm, _ := drive(b, 0, nil, &seq)
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS(10 * time.Millisecond)
	host0, cpu0 := readCPU(), cpuTime()
	measured, elapsed := drive(b, dur, tr, &seq)
	cpuUsed := cpuTime() - cpu0
	peakRSS, highestRSS := rss.end()
	steal := stealShare(host0, readCPU())
	if cpuUsed <= 0 {
		return nil, fmt.Errorf("process CPU time is not available")
	}
	if traced {
		if err := b.probe(tr); err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
	}
	failedLate, err := b.verify(tr)
	if err != nil {
		return nil, fmt.Errorf("%s verify: %w", w.name, err)
	}

	all := append(append([]opResult(nil), warm...), measured...)
	failed := failedLate
	var firstErr error
	for _, r := range all {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", firstErr)
	}
	res := &result{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}

	okOps := 0
	var untraced, tracedOps []opResult
	for _, r := range measured {
		if r.err == nil {
			okOps++
		}
		if r.traced {
			tracedOps = append(tracedOps, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	// Wall-clock latency comes from the untraced operations only.
	lats := latencies(untraced, "")
	tailV, tailP, beyond := tail(lats, 10)
	opsPerS := float64(okOps) / elapsed.Seconds()
	cpuPerOp := ratio(ms(cpuUsed), float64(okOps))
	prov := map[string]any{
		"workload": w.name, "why": w.why, "seed": seed, "clients": b.clients(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "trace": traced,
		"measured_seconds": elapsed.Seconds(), "measured_cpu_seconds": cpuUsed.Seconds(), "ops": len(measured), "highest_rss_mb": highestRSS,
		"op_p50_ms": median(lats), "op_tail_ms": tailV, "ops_per_s": opsPerS,
		"op_tail_percentile": tailP, "op_tail_samples_beyond": beyond,
		"setup_cpu_s_samples": setupCPU, "setup_wall_s_samples": setupWall,
		"digest": b.digest(), "cpu_steal_share": steal,
	}
	for k, v := range b.provenance() {
		prov[k] = v
	}
	if p, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Println(string(p))
	}

	if !traced {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", median(setupCPU))
		put("cpu_ms_per_op", "ms", cpuPerOp)
		put("ok_ratio", "ratio", 1-float64(failed)/float64(len(all)))
		put("peak_rss_mb", "MiB", peakRSS)
		return res, nil
	}

	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	e.s.add("wall.op_tail_ms", tailV)
	e.s.add("wall.ops_per_s", opsPerS)
	e.s.add("host.steal_share", steal)
	for name, m := range layerMetrics(tr, e.s, untraced, tracedOps) {
		res.Metrics[name] = m
	}
	return res, nil
}

// drive runs the closed loop: each client sends its next operation only
// after the previous one completed, until dur has passed (dur 0: exactly
// one operation per client). It returns every operation and the time from
// start until the last one finished. With a tracer, odd-numbered
// operations are traced; interleaving them with untraced ones exposes both
// halves to the same host noise, so their difference is the tracing cost.
func drive(b bench, dur time.Duration, tr *tracer, seq *atomic.Int64) ([]opResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]opResult, b.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				var root active
				if i%2 == 1 {
					root = tr.root("op")
				}
				tr.setCurrent(root)
				t0 := time.Now()
				class, err := b.op(c, i, root)
				lat := time.Since(t0)
				root.end()
				per[c] = append(per[c], opResult{class, lat, err, root.t != nil})
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []opResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, elapsed
}

// latencies returns the successful operations' latencies in ms, of one
// class or of all ("").
func latencies(rs []opResult, class string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.err == nil && (class == "" || r.class == class) {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// wrong reports an operation whose output failed a check.
func wrong(format string, args ...any) error {
	return fmt.Errorf("wrong output: "+format, args...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
