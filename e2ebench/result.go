package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (bench_test.go keeps the
// two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_ms_p50", "ms"},
	{"update_ms_p90", "ms"},
	{"publish_ms_p50", "ms"},
	{"updates_per_s", "1/s"},
	{"cpu_ms_per_update", "ms"},
	{"alloc_MiB_per_update", "MiB"},
	{"peak_rss_MiB", "MiB"},
}

// perLayer are the traced run's metrics. The replayed stage times are
// measured on every workload's inputs; a counter or in-loop time of a
// layer the workload does not use reports 0 there. README.md gives the end-to-end metric each one
// should move and the workload where it dominates.
var perLayer = []metricDef{
	{"vformat.encode_ms", "ms"},
	{"vformat.encode_alloc_MiB", "MiB"},
	{"vformat.hash_ms", "ms"},
	{"vformat.plan_delta_ms", "ms"},
	{"vformat.decode_ms", "ms"},
	{"vformat.reconcile_ms", "ms"},
	{"transport.tcp_bytes_per_update", "B"},
	{"transport.tcp_frames_per_update", "count"},
	{"transport.link_write_ms_per_update", "ms"},
	{"transport.dedup_ratio", "1"},
	{"transport.corrupt_frames", "count"},
	{"remote.post_publish_ms_p50", "ms"},
	{"remote.staged_load_ratio", "1"},
	{"remote.link_failures", "count"},
	{"remote.delta_send_ratio", "1"},
	{"remote.have_list_wait_ms", "ms"},
	{"remote.stale_notifications_per_update", "count"},
	{"relay.ingest_frames_per_update", "count"},
	{"relay.served_per_update", "count"},
	{"relay.deduped_chunk_ratio", "1"},
	{"relay.serve_write_ms_per_update", "ms"},
	{"relay.abandoned_fanouts", "count"},
	{"relay.cache_bytes", "B"},
	{"kvstore.staging_set_ms", "ms"},
	{"kvstore.sets_per_update", "count"},
	{"kvstore.gets_per_update", "count"},
	{"pubsub.notify_rtt_ms", "ms"},
	{"pubsub.delivered_per_update", "count"},
	{"chunkstore.put_ms", "ms"},
	{"chunkstore.reclaimed_bytes_per_update", "B"},
	{"chunkstore.load_version_ms", "ms"},
	{"chunkstore.history_read_ms_p50", "ms"},
	{"chunkstore.live_bytes", "B"},
	{"chunkstore.segments", "count"},
	{"chunkstore.reopen_ms", "ms"},
	{"core.save_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.fallbacks", "count"},
	{"core.store_errors", "count"},
	{"core.virtual_stall_ms", "virtual_ms"},
	{"runtime.gc_cycles_per_update", "count"},
	{"runtime.gc_pause_ms_per_update", "ms"},
	{"bench.updates", "count"},
	{"bench.fail_ratio", "1"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.stage_coverage", "1"},
}

// samples are the per-version measurements of one measured phase.
type samples struct {
	update  []float64 // ms, publish call to the last consumer's install
	publish []float64 // ms, time the producer was blocked in the call
	post    []float64 // ms, publish return to the last install
	timed   time.Duration
	cpu     time.Duration
	alloc   uint64
}

func (s *samples) add(t timing, before, after usage) {
	s.update = append(s.update, ms(t.end.Sub(t.start)))
	s.publish = append(s.publish, ms(t.published.Sub(t.start)))
	s.post = append(s.post, ms(t.end.Sub(t.published)))
	s.timed += t.end.Sub(t.start)
	s.cpu += after.cpu - before.cpu
	s.alloc += after.alloc - before.alloc
}

func (s *samples) n() int { return len(s.update) }

// merge pools o into s.
func (s *samples) merge(o *samples) {
	s.update = append(s.update, o.update...)
	s.publish = append(s.publish, o.publish...)
	s.post = append(s.post, o.post...)
	s.timed += o.timed
	s.cpu += o.cpu
	s.alloc += o.alloc
}

// result accumulates one invocation's measurements.
type result struct {
	cfg       config
	attempted int
	failed    int
	failures  []string // first few failure reasons, for stderr
	setup     []float64
	epochs    []samples // the measured (traced, with --trace 1) phase, slice by slice
	main      samples   // the same, pooled
	untraced  samples   // --trace 1 only: the untraced half
	layer     map[string]float64
	spans     *spanLog
}

func newResult(cfg config) *result {
	r := &result{cfg: cfg, layer: make(map[string]float64, len(perLayer))}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	if cfg.trace {
		r.spans = newSpanLog()
	}
	return r
}

// fail records one failed update.
func (r *result) fail(v uint64, err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("v%d: %v", v, err))
	}
}

// endToEndValues derives the end-to-end metrics from the measured
// phase's quieter half: the epochs with the lowest median update
// latency, pooled (see epochs).
func (r *result) endToEndValues() map[string]float64 {
	var quiet []samples
	for _, e := range r.epochs {
		if e.n() > 0 {
			quiet = append(quiet, e)
		}
	}
	sort.SliceStable(quiet, func(i, j int) bool {
		return quantile(quiet[i].update, 0.5) < quantile(quiet[j].update, 0.5)
	})
	var s samples
	for i := range quiet[:(len(quiet)+1)/2] {
		s.merge(&quiet[i])
	}
	n := float64(s.n())
	return map[string]float64{
		"setup_s":              median(r.setup),
		"update_ms_p50":        quantile(s.update, 0.5),
		"update_ms_p90":        quantile(s.update, 0.9),
		"publish_ms_p50":       quantile(s.publish, 0.5),
		"updates_per_s":        n / s.timed.Seconds(),
		"cpu_ms_per_update":    ms(s.cpu) / n,
		"alloc_MiB_per_update": mib(float64(s.alloc)) / n,
		"peak_rss_MiB":         mib(peakRSS()),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last stdout line.
func (r *result) output() map[string]any {
	defs, values := endToEnd, r.endToEndValues()
	if r.cfg.trace {
		defs, values = perLayer, r.layer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}
}
