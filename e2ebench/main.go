// Command e2ebench is the repository benchmark: it times one model
// version end to end, from the producer's save/publish call to the
// moment the last consumer's install returns, through Viper's public
// entry points, and checks every installed model.
//
// Usage (from the repository root, see run.sh):
//
//	e2ebench --workload fanout_full --seed 1 --seconds 20 --trace 0
//
// Workloads (each a closed loop with one producer: version v+1 is
// published only after every consumer has installed version v):
//
//   - fanout_full: producer → memory-only relay → 2 consumers over
//     loopback TCP; every element moves every version.
//   - direct_drift: producer → 1 consumer on the direct link with delta
//     reconciliation and DeltaEps 1e-3; ~8% of the chunks move per
//     version, the rest jitter below eps.
//   - inproc_timetravel: the public viper API on the virtual clock with
//     a time-travel store; every element moves every version and an
//     older version is reloaded after each install.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run
// (spans, wrapped connections, registry counters and a stage replay).
// README.md lists every metric and the end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"viper/internal/vformat"
)

// modelBytes is the checkpoint payload size every workload publishes.
const modelBytes = 16 << 20

func main() {
	workload := flag.String("workload", "", "fanout_full, direct_drift or inproc_timetravel")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 20, "measured wall-clock seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := defaultConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	meta := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"seconds":     cfg.measure.Seconds(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"model_bytes": cfg.modelBytes,
		"chunk_bytes": cfg.chunkBytes,
	}
	if err := printJSON(map[string]any{"run": meta}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: failed update", f)
	}
	if err := printJSON(res.output()); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload   string
	seed       int64
	measure    time.Duration // wall clock of the measured loop
	trace      bool
	modelBytes int
	chunkBytes int
	setups     int // topology bring-ups; setup_s is their median
	warmup     int // untimed versions before measuring
	replayReps int // repetitions per replayed stage
	spanDir    string
}

func defaultConfig(workload string, seed int64, measure time.Duration, trace bool) config {
	return config{
		workload:   workload,
		seed:       seed,
		measure:    measure,
		trace:      trace,
		modelBytes: modelBytes,
		chunkBytes: vformat.DefaultChunkBytes,
		setups:     21,
		warmup:     3,
		replayReps: 7,
		spanDir:    ".bench_build/e2ebench",
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *result) error{
	"fanout_full":       runFanoutFull,
	"direct_drift":      runDirectDrift,
	"inproc_timetravel": runInprocTimeTravel,
}

// run executes cfg's workload and derives the reported metrics.
func run(cfg config) (*result, error) {
	defer os.RemoveAll(workDir(cfg))
	res := newResult(cfg)
	if err := workloads[cfg.workload](cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := res.spans.write(cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// workDir holds the run's stores; run removes it when done.
func workDir(cfg config) string {
	return filepath.Join(cfg.spanDir, fmt.Sprintf("run-%d", os.Getpid()))
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
