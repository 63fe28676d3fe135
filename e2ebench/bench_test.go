package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// smallConfig shrinks a workload to a 1 MiB model and a fraction of a
// second so every path runs in well under the tier-1 budget.
func smallConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 3, 400*time.Millisecond, trace)
	cfg.modelBytes = 1 << 20
	cfg.setups, cfg.warmup, cfg.replayReps = 2, 2, 2
	cfg.spanDir = t.TempDir()
	return cfg
}

// TestSmoke runs every workload traced for a few versions: no update
// may fail, every end-to-end metric must be positive, every replayed
// stage must be timed, and each layer the workload exercises must
// report work.
func TestSmoke(t *testing.T) {
	replayed := []string{
		"vformat.encode_ms", "vformat.hash_ms", "vformat.plan_delta_ms", "vformat.decode_ms", "vformat.reconcile_ms",
		"kvstore.staging_set_ms", "pubsub.notify_rtt_ms",
		"chunkstore.put_ms", "chunkstore.reopen_ms", "chunkstore.load_version_ms",
	}
	busy := map[string][]string{
		"fanout_full":       {"relay.served_per_update", "transport.tcp_bytes_per_update", "relay.serve_write_ms_per_update"},
		"direct_drift":      {"transport.dedup_ratio", "remote.delta_send_ratio", "transport.link_write_ms_per_update"},
		"inproc_timetravel": {"chunkstore.history_read_ms_p50", "core.save_ms", "core.virtual_stall_ms"},
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(smallConfig(t, name, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("failed %d of %d updates: %v", res.failed, res.attempted, res.failures)
			}
			for _, m := range endToEnd {
				if v := res.endToEndValues()[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			got := res.output()["metrics"].(map[string]metricValue)
			if len(got) != len(perLayer) {
				t.Errorf("traced output has %d metrics, want %d", len(got), len(perLayer))
			}
			for _, m := range append(busy[name], replayed...) {
				if !(got[m].Value > 0) {
					t.Errorf("%s = %v, want > 0", m, got[m].Value)
				}
			}
			if got["bench.fail_ratio"].Value != 0 {
				t.Errorf("bench.fail_ratio = %v", got["bench.fail_ratio"].Value)
			}
		})
	}
}

// stubSystem completes every update and fails the check of the
// versions in bad.
type stubSystem struct{ bad map[uint64]error }

func (s *stubSystem) prepare(uint64) error { return nil }
func (s *stubSystem) update(uint64) (timing, error) {
	now := time.Now()
	return timing{start: now, published: now, installs: []time.Time{now}, end: now}, nil
}
func (s *stubSystem) check(v uint64, _ int) error { return s.bad[v] }
func (s *stubSystem) close()                      {}

// TestBadInstallsAreFailures shows that a corrupted or wrong-version
// install fails its check and is counted, not passed.
func TestBadInstallsAreFailures(t *testing.T) {
	want := newSnapshot(1 << 20)
	fillSnapshot(want)
	corrupt := want.Clone()
	corrupt[1].Data[77] = corrupt[1].Data[77] + 1e-12

	s := &tcpSystem{installed: []*vformat.Checkpoint{{ModelName: benchModel, Version: 4, Weights: corrupt}}, cur: want}
	corruptErr := s.check(4, 0)
	if corruptErr == nil {
		t.Fatal("corrupted install passed the check")
	}
	s.installed[0].Weights = want.Clone()
	if err := s.check(4, 0); err != nil {
		t.Fatalf("intact install failed: %v", err)
	}

	s.results = []chan installResult{make(chan installResult, 1)}
	s.results[0] <- installResult{ckpt: &vformat.Checkpoint{ModelName: benchModel, Version: 5}, at: time.Now()}
	if _, _, err := s.await(0, 4, time.Now(), nil); err == nil {
		t.Fatal("install of v5 accepted for v4")
	}
	if err := checkWithin(corrupt, want, 1e-3); err != nil {
		t.Fatalf("within-eps drift rejected: %v", err)
	}
	corrupt[0].Data[0] += 1
	if checkWithin(corrupt, want, 1e-3) == nil {
		t.Fatal("element off by 1 passed a 1e-3 bound")
	}

	res := newResult(defaultConfig("stub", 1, 0, false))
	stub := &stubSystem{bad: map[uint64]error{2: corruptErr, 3: errors.New("installed v4, want v3")}}
	if _, err := drive(stub, res, 1, 0, 4, &res.main); err != nil {
		t.Fatal(err)
	}
	out := res.output()
	if res.failed != 2 || out["attempted"] != 4 || out["failed"] != 2 || out["correct"] != false {
		t.Fatalf("attempted %v failed %v correct %v, want 4, 2, false", out["attempted"], out["failed"], out["correct"])
	}
	if res.main.n() != 2 {
		t.Fatalf("%d versions measured, want only the 2 that passed", res.main.n())
	}
}

func fillSnapshot(s nn.Snapshot) {
	for _, t := range s {
		for i := range t.Data {
			t.Data[i] = float64(i%1000) * 1e-3
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload lists the program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
	for _, c := range []struct {
		json []metric
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
