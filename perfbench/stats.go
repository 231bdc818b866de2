package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// median returns the middle of vs (the mean of the two middles for an even
// count), or 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the latency at the highest percentile that still has at
// least minBeyond samples above it, with that percentile and the number of
// samples above it. With minBeyond or fewer samples it returns the maximum.
func tail(vs []float64, minBeyond int) (value, percentile float64, beyond int) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 1 - minBeyond
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time, user and system, that all of this process's
// threads have used, or 0 where the kernel does not report it. A guest
// kernel that accounts steal time (paravirtualised Linux) leaves out the
// time the hypervisor ran other guests instead, which wall-clock time
// counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples collects named per-operation values (counters read from result
// envelopes and job views) from concurrent clients.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: make(map[string][]float64)} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) median(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.m[name])
}

func (s *samples) mean(name string) float64 {
	s.mu.Lock()
	n := len(s.m[name])
	s.mu.Unlock()
	return ratio(s.sum(name), float64(n))
}

func (s *samples) sum(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0.0
	for _, v := range s.m[name] {
		t += v
	}
	return t
}

// ratio divides two medians, returning 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// rssSampler polls the process's resident set size until stopped. Go
// returns freed heap to the OS lazily, so callers release it
// (debug.FreeOSMemory) before starting the sampler to keep set-up garbage
// out of the workload's samples.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSS(every time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			r.samples = append(r.samples, float64(readRSS())/(1<<20))
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// end stops the sampler and returns, in MiB, the level resident memory
// stayed under for 95% of the samples, and the highest sample. Heap grows
// and shrinks with every garbage collection cycle, so the highest sample
// depends on when a cycle ran relative to the samples; the 95th percentile
// over many cycles does not.
func (r *rssSampler) end() (p95, highest float64) {
	close(r.stop)
	<-r.done
	s := append(r.samples, float64(readRSS())/(1<<20))
	sort.Float64s(s)
	return s[(len(s)-1)*95/100], s[len(s)-1]
}

// readRSS returns the resident set size in bytes from /proc/self/statm, or
// 0 where that file does not exist.
func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// stealShare returns the share of all CPU time the hypervisor gave to
// other guests between two readCPU samples, or -1 when unknown. On a
// shared host it explains runs that are slow for no reason in the program.
func stealShare(a, b [2]int64) float64 {
	if a[1] == 0 || b[1] <= a[1] {
		return -1
	}
	return float64(b[0]-a[0]) / float64(b[1]-a[1])
}

// readCPU returns the machine's steal and total CPU ticks from /proc/stat,
// or zeros where that file does not exist.
func readCPU() [2]int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return [2]int64{}
	}
	var out [2]int64
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return [2]int64{}
		}
		if i < 8 { // guest time is already counted in user time
			out[1] += n
		}
		if i == 7 {
			out[0] = n
		}
	}
	return out
}
