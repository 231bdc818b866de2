package main

// perLayer lists the traced run's metrics in the order BENCHMARK.json
// declares them. Every traced run prints all of them; a layer that the
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"taxonomy.parse_ms", "ms"},
	{"txdb.load_ms", "ms"},
	{"txdb.load_mb_per_s", "MB/s"},
	{"txdb.materialize_ms", "ms"},
	{"txdb.dedup_ms", "ms"},
	{"txdb.dedup_ratio", "ratio"},
	{"core.cold_mine_ms", "ms"},
	{"core.warm_mine_ms", "ms"},
	{"core.prep_ms", "ms"},
	{"core.candidates_counted", "count"},
	{"core.db_scans", "count"},
	{"core.probes_pruned", "count"},
	{"core.trie_nodes", "count"},
	{"core.bitmap_word_ops", "count"},
	{"core.patterns", "count"},
	{"core.frequent_per_candidate", "ratio"},
	{"core.alive_per_frequent", "ratio"},
	{"core.peak_bytes", "bytes"},
	{"core.encode_ms", "ms"},
	{"core.envelope_bytes", "bytes"},
	{"sketch.probes", "count"},
	{"sketch.pruned", "count"},
	{"sketch.skip_ratio", "ratio"},
	{"sketch.exact_fallbacks", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.refused", "count"},
	{"service.mine_p50_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.topk_p50_ms", "ms"},
	{"cluster.dispatches_per_job", "count"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.worker_busy_ms", "ms"},
	{"cluster.request_bytes", "bytes"},
	{"cluster.response_bytes", "bytes"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.degraded_jobs", "count"},
	{"cluster.coordinator_self_ms", "ms"},
	{"op.self_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"wall.op_tail_ms", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"host.steal_share", "ratio"},
}

// Sample names the workloads record per operation, and the run's
// wall-clock figures recorded once; each is reported as the median over
// the values recorded.
var medianSamples = []string{
	"txdb.dedup_ratio",
	"core.candidates_counted", "core.db_scans", "core.probes_pruned", "core.trie_nodes",
	"core.bitmap_word_ops", "core.patterns", "core.frequent_per_candidate",
	"core.alive_per_frequent", "core.peak_bytes", "core.envelope_bytes",
	"sketch.probes", "sketch.pruned", "sketch.skip_ratio", "sketch.exact_fallbacks",
	"service.queue_wait_ms", "service.run_ms", "service.polls_per_job",
	"cluster.coordinator_self_ms",
	"wall.op_tail_ms", "wall.ops_per_s", "host.steal_share",
}

// Sample names reported as totals over the run.
var sumSamples = []string{"service.refused", "cluster.retries", "cluster.hedges", "cluster.degraded_jobs"}

// layerMetrics turns the traced run's spans and samples into the per-layer
// metrics. Parse and load times are medians per call (set-up loads the
// dataset once per node); other span-based times are per-operation sums of
// self time, reported as the median over the operations (or probe passes)
// that made the call.
func layerMetrics(tr *tracer, s *samples, untraced, traced []opResult) map[string]metric {
	spans := tr.snapshot()
	ls := aggregate(spans)
	self := func(name string) float64 { return median(perOp(ls.self, name)) }
	sum := func(vs []float64) float64 {
		t := 0.0
		for _, v := range vs {
			t += v
		}
		return t
	}
	v := map[string]float64{}
	for _, n := range medianSamples {
		v[n] = s.median(n)
	}
	for _, n := range sumSamples {
		v[n] = s.sum(n)
	}

	v["taxonomy.parse_ms"] = median(ls.durs["taxonomy.parse"])
	v["txdb.load_ms"] = median(ls.durs["txdb.load"])
	v["txdb.load_mb_per_s"] = ratio(sum(perOp(ls.bytes, "txdb.load"))/1e6, sum(perOp(ls.total, "txdb.load"))/1e3)
	v["txdb.materialize_ms"] = self("txdb.materialize")
	v["txdb.dedup_ms"] = self("txdb.dedup")
	v["core.cold_mine_ms"] = self("core.cold_mine")
	v["core.warm_mine_ms"] = self("core.warm_mine")
	v["core.prep_ms"] = v["core.cold_mine_ms"] - v["core.warm_mine_ms"]
	v["core.encode_ms"] = self("core.encode")

	v["service.submit_ms"] = median(ls.durs["service.submit"])
	v["service.cache_hit_ratio"] = s.mean("service.cache_hit")
	// Class latencies come from the untraced operations.
	v["service.mine_p50_ms"] = median(latencies(untraced, "mine"))
	v["service.hit_p50_ms"] = median(latencies(untraced, "hit"))
	v["service.topk_p50_ms"] = median(latencies(untraced, "topk"))

	v["cluster.dispatches_per_job"] = median(perOp(ls.calls, "cluster.dispatch"))
	v["cluster.dispatch_ms"] = median(ls.durs["cluster.dispatch"])
	v["cluster.worker_busy_ms"] = median(perOp(ls.total, "cluster.worker"))
	v["cluster.request_bytes"] = median(perOp(ls.bytes, "cluster.dispatch"))
	v["cluster.response_bytes"] = median(perOp(ls.bytes, "cluster.worker"))

	v["op.self_ms"] = self("op")
	un, tp := median(latencies(untraced, "")), median(latencies(traced, ""))
	v["trace.untraced_op_p50_ms"] = un
	v["trace.traced_op_p50_ms"] = tp
	v["trace.overhead_ms"] = tp - un
	v["trace.spans"] = float64(len(spans))

	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{v[l.name], l.unit}
	}
	return out
}
