package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"viper"
	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/pubsub"
)

const (
	// timeTravelKeep is the store's retention, in versions.
	timeTravelKeep = 8
	// historyBack is how far behind the newest install the history
	// read reaches (inside the retention window).
	historyBack = 4
)

// inprocSystem is the public viper API on the virtual clock: a producer
// with a time-travel store and one subscribed consumer.
type inprocSystem struct {
	dir   string
	prod  *viper.Producer
	cons  *viper.Consumer
	sub   *pubsub.Subscription
	spans *spanLog

	inputs  *fullInputs
	cur     nn.Snapshot
	scratch nn.Snapshot

	history []float64 // ms, Producer.LoadVersion of an older version
	stalls  []float64 // ms of virtual time, SaveReport.Stall
}

func newInprocSystem(dir string, inputs *fullInputs, scratch nn.Snapshot, spans *spanLog) (*inprocSystem, error) {
	env := viper.NewEnv(viper.NewVirtualClock())
	// Memory tiers are accounted at the paper's TC1 checkpoint size, as
	// the paper experiments and examples/quickstart do. At the real
	// 16 MiB size the simulated 40 GB GPU tier would evict nothing and
	// hold every version's bytes for the whole run.
	prod, err := viper.NewProducer(env, benchModel,
		viper.WithTimeTravel(dir, timeTravelKeep), viper.WithVirtualSize(models.SizeTC1))
	if err != nil {
		return nil, err
	}
	cons, err := viper.NewConsumer(env, benchModel)
	if err != nil {
		prod.Close()
		return nil, err
	}
	return &inprocSystem{
		dir: dir, prod: prod, cons: cons, sub: cons.Subscribe(), spans: spans,
		inputs: inputs, scratch: scratch,
	}, nil
}

func (s *inprocSystem) close() {
	s.sub.Close()
	s.prod.Close()
}

func (s *inprocSystem) prepare(v uint64) error {
	s.cur = s.inputs.snapshot(v)
	return nil
}

func (s *inprocSystem) update(v uint64) (timing, error) {
	t := timing{start: time.Now()}
	rep, err := s.prod.SaveWeights(s.cur, v, 1/float64(v))
	t.published = time.Now()
	if err != nil {
		return t, fmt.Errorf("save: %w", err)
	}
	if rep.Meta.Version != v {
		return t, fmt.Errorf("saved v%d, want v%d", rep.Meta.Version, v)
	}
	s.stalls = append(s.stalls, ms(rep.Stall))
	var msg pubsub.Message
	select {
	case msg = <-s.sub.C:
	case <-time.After(installTimeout):
		return t, fmt.Errorf("no notification for v%d within %v", v, installTimeout)
	}
	if _, err := s.cons.HandleNotification(msg); err != nil {
		return t, fmt.Errorf("load: %w", err)
	}
	t.end = time.Now()
	t.installs = []time.Time{t.end}
	return t, nil
}

func (s *inprocSystem) check(v uint64, root int) error {
	ckpt := s.cons.ActiveModel()
	if err := checkVersion(ckpt, v); err != nil {
		return err
	}
	if err := checkIdentical(ckpt.Weights, s.cur); err != nil {
		return err
	}
	if v <= historyBack {
		return nil
	}
	old := v - historyBack
	start := time.Now()
	got, err := s.prod.LoadVersion(old)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("load v%d from history: %w", old, err)
	}
	s.history = append(s.history, ms(end.Sub(start)))
	s.spans.add("load_version", root, v, 0, start, end)
	s.inputs.regenerate(old, s.scratch)
	if err := checkVersion(got, old); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := checkIdentical(got.Weights, s.scratch); err != nil {
		return fmt.Errorf("history v%d: %w", old, err)
	}
	return nil
}

// inprocCounters is a reading of every counter the traced in-process
// run reports.
type inprocCounters struct {
	handler           core.HandlerStats
	reg               regSnap
	gc                gcState
	histories, stalls int
}

func runInprocTimeTravel(cfg config, res *result) error {
	inputs := newFullInputs(cfg.seed, cfg.modelBytes)
	scratch := newSnapshot(cfg.modelBytes)
	// Each bring-up opens its own store directory, created beforehand:
	// a producer starts against its existing time-travel directory, and
	// the one-time fsync'd creation would swamp the sub-millisecond
	// bring-up with file-system latency.
	dirs := make([]string, cfg.setups)
	for i := range dirs {
		dirs[i] = filepath.Join(workDir(cfg), fmt.Sprintf("store-%d", i))
		st, err := chunkstore.Open(dirs[i], chunkstore.Options{})
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	var sys *inprocSystem
	setups := 0
	bringUp := func() (system, error) {
		setups++
		s, err := newInprocSystem(dirs[setups-1], inputs, scratch, res.spans)
		if err != nil {
			return nil, err
		}
		if sys != nil {
			_ = os.RemoveAll(sys.dir)
		}
		sys = s
		return s, nil
	}
	read := func() inprocCounters {
		return inprocCounters{
			handler: sys.prod.Handler().Stats(), reg: readRegistries(), gc: readGC(),
			histories: len(sys.history), stalls: len(sys.stalls),
		}
	}
	var before, after inprocCounters
	enable := func(on bool) {
		if on {
			before = read()
		} else {
			after = read()
		}
		res.spans.on.Store(on)
	}
	next, err := measure(cfg, res, bringUp, enable)
	if err != nil {
		return err
	}
	sys.close()
	if !cfg.trace {
		return nil
	}
	l := res.layer
	n := float64(res.main.n())
	l["core.save_ms"] = median(res.main.publish)
	l["core.load_ms"] = median(res.main.post)
	l["core.fallbacks"] = float64(after.handler.Fallbacks - before.handler.Fallbacks)
	l["core.store_errors"] = float64(after.handler.StoreErrors - before.handler.StoreErrors)
	l["core.virtual_stall_ms"] = median(sys.stalls[before.stalls:after.stalls])
	l["chunkstore.history_read_ms_p50"] = median(sys.history[before.histories:after.histories])
	l["chunkstore.reclaimed_bytes_per_update"] = after.reg.delta(before.reg, "chunkstore.gc_reclaimed_bytes") / n
	l["kvstore.sets_per_update"] = after.reg.delta(before.reg, "kvstore.sets") / n
	l["kvstore.gets_per_update"] = after.reg.delta(before.reg, "kvstore.gets") / n
	l["pubsub.delivered_per_update"] = after.reg.delta(before.reg, "pubsub.delivered") / n
	runtimeLayers(l, before.gc, after.gc, n)
	benchLayers(res)

	prev := newSnapshot(cfg.modelBytes)
	inputs.regenerate(next-1, prev)
	blob, err := replayCodec(cfg, prev, inputs.snapshot(next), 0, l)
	if err != nil {
		return err
	}
	if err := replayScratchServices(cfg, blob, l); err != nil {
		return err
	}
	if err := replayStore(cfg, filepath.Join(workDir(cfg), "replay"), sys.dir, blobSource(cfg, inputs.snapshot, 0), next+1, l); err != nil {
		return err
	}
	stageCoverage(res, []string{"vformat.encode_ms", "chunkstore.put_ms", "vformat.decode_ms"})
	return nil
}
