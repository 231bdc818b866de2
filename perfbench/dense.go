package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// The dense dataset: the counting experiment's random background (8,000
// transactions of 16 leaves over 64 two-leaf categories) plus the topk
// experiment's planted flips — n/10 cross-pair transactions for each of
// the category pairs (cat00, cat01) and (cat02, cat03), which lift the
// category pair past γ while keeping its leaf pairs under ε.
const (
	denseName = "dense"
	denseN    = 8000
)

// planted lists the four leaf pairs the plant makes flip (+ at the category
// level, − at the leaves): the cross pairs it adds never hold two leaves of
// the same index, so those pairs stay uncorrelated while their categories
// correlate. Every mine of the grid below must return them.
var planted = [][2]string{
	{"leaf00.0", "leaf01.0"}, {"leaf00.1", "leaf01.1"},
	{"leaf02.0", "leaf03.0"}, {"leaf02.1", "leaf03.1"},
}

func plantedKey(p [2]string) string { return flipKey(p[:], []string{"+", "-"}) }

func genDense(seed int64) (*txdb.DB, *taxonomy.Tree, error) {
	db, tree, err := experiments.DenseWorkload(denseN, 64, 2, 16, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for i := 0; i < denseN/10; i++ {
			db.AddNames(fmt.Sprintf("leaf%02d.%d", pair[0], i%2), fmt.Sprintf("leaf%02d.%d", pair[1], 1-i%2))
		}
	}
	return db, tree, nil
}

// gridPoint is one mining configuration of the dense workloads. The box
// γ ∈ [.35, .42], ε ∈ [.10, .15], θ₁ ∈ [.020, .030], θ₂ ∈ [.0040, .0060]
// keeps all four planted flips at every point and every seed (labels and
// supports only loosen towards the box's low-γ, high-ε, low-θ corner, and
// the tight corner was checked); at γ = .45 a planted category pair can
// drop under γ.
type gridPoint struct {
	Gamma   float64   `json:"gamma"`
	Epsilon float64   `json:"epsilon"`
	MinSup  []float64 `json:"min_sup"`
}

// denseGrid returns the 1,440 grid points in a seeded order. Operations
// take them in turn, so a run never repeats a configuration and every mine
// misses the result cache unless it is a deliberate resubmission.
func denseGrid(seed int64) []gridPoint {
	var g []gridPoint
	for a := 35; a <= 42; a++ {
		for e := 10; e <= 15; e++ {
			for t1 := 20; t1 <= 30; t1 += 2 {
				for t2 := 40; t2 <= 60; t2 += 5 {
					g = append(g, gridPoint{float64(a) / 100, float64(e) / 100,
						[]float64{float64(t1) / 1000, float64(t2) / 10000}})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	return g
}

// warmPoint is off the grid (θ₁ = .025), so warming the engine in set-up
// leaves no measured configuration in the result cache.
var warmPoint = gridPoint{0.38, 0.12, []float64{0.025, 0.005}}

// config resolves a grid point exactly as flipperd does for a submission:
// the patch overlaid on the dataset's default configuration.
func (p gridPoint) config(d *service.Dataset) (core.Config, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return core.Config{}, err
	}
	var patch service.ConfigPatch
	if err := json.Unmarshal(raw, &patch); err != nil {
		return core.Config{}, err
	}
	return patch.Apply(d.DefaultConfig()), nil
}

// unit maps (seed, seq, salt) to a uniform value in [0, 1), so an
// operation's random choices depend on its number, not on timing.
func unit(seed, seq int64, salt string) float64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(seq))
	h.Write(b[:])
	h.Write([]byte(salt))
	return float64(h.Sum64()>>11) / (1 << 53)
}

// checkPlanted demands every planted flip in a mine's envelope.
func checkPlanted(r *core.ResultJSON) error {
	got := patternKeys(r)
	for _, p := range planted {
		if !got[plantedKey(p)] {
			return wrong("planted flip %v missing from %d patterns", p, r.PatternCount)
		}
	}
	return nil
}

// loadDense generates the dense dataset, writes it in the flipgen layout
// (in shards basket files) and loads it back as flipperd's registry would.
// It also returns the baskets' size.
func loadDense(root active, dir string, seed int64, shards int) (*service.Dataset, int64, error) {
	db, tree, err := genDense(seed)
	if err != nil {
		return nil, 0, err
	}
	dir = filepath.Join(dir, denseName)
	n, err := writeDataset(dir, tree, db, shards)
	if err != nil {
		return nil, 0, err
	}
	t, src, err := loadDataset(root, dir, n)
	if err != nil {
		return nil, 0, err
	}
	return &service.Dataset{Name: denseName, Tree: t, Src: src}, n, nil
}

func denseProvenance(d *service.Dataset, s *samples, grid int, extra map[string]any) map[string]any {
	p := map[string]any{"dataset": denseName, "transactions": d.Src.Len(), "taxonomy_height": d.Tree.Height(),
		"candidates_per_mine": s.median("core.candidates_counted"), "grid_points": grid}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// digestMap hashes envelopes keyed by operation number, in that order.
func digestMap(m map[int64][]byte) string {
	seqs := make([]int64, 0, len(m))
	for s := range m {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	envs := make([][]byte, len(seqs))
	for i, s := range seqs {
		envs[i] = m[s]
	}
	return digestOf(envs)
}

// jobView is the part of flipperd's job envelope the client reads.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

var errRefused = errors.New("refused with 503")

// pollEvery is how long a client waits between job polls.
const pollEvery = 2 * time.Millisecond

// svcClient talks to one flipperd over HTTP, as a job-polling client does.
type svcClient struct {
	base string
	hc   *http.Client
}

func newSvcClient(base string, conns int) *svcClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	return &svcClient{base: base, hc: &http.Client{Transport: t, Timeout: time.Minute}}
}

func (c *svcClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// call sends one request and decodes the job envelope it answers with.
func (c *svcClient) call(sp active, method, path string, body []byte) (jobView, error) {
	code, out, err := c.do(method, path, body)
	sp.endBytes(int64(len(out)))
	var v jobView
	switch {
	case err != nil:
		return v, err
	case code == http.StatusServiceUnavailable:
		return v, errRefused
	case code != http.StatusOK && code != http.StatusAccepted:
		return v, fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(out))
	}
	if err := json.Unmarshal(out, &v); err != nil {
		return v, fmt.Errorf("%s %s: bad job envelope: %w", method, path, err)
	}
	return v, nil
}

// submit posts a job and polls it until it finishes, returning the final
// envelope and the number of polls.
func (c *svcClient) submit(root active, submitSpan string, body []byte) (jobView, int, error) {
	v, err := c.call(root.child(submitSpan), http.MethodPost, "/v1/jobs", body)
	polls := 0
	for err == nil && (v.Status == "queued" || v.Status == "running") {
		time.Sleep(pollEvery)
		polls++
		v, err = c.call(root.child("service.poll"), http.MethodGet, "/v1/jobs/"+v.ID, nil)
	}
	if err != nil {
		return v, polls, err
	}
	if v.Status != "done" {
		return v, polls, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	return v, polls, nil
}

// recordJob adds a finished job's queue timings to the samples.
func recordJob(s *samples, v jobView, polls int) {
	if v.Started == nil || v.Finished == nil {
		return
	}
	s.add("service.queue_wait_ms", ms(v.Started.Sub(v.Created)))
	s.add("service.run_ms", ms(v.Finished.Sub(*v.Started)))
	s.add("service.polls_per_job", float64(polls))
}

func submitBody(p gridPoint) ([]byte, error) {
	return json.Marshal(map[string]any{"dataset": denseName, "config": p})
}
