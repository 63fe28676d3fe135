package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/vformat"
)

// The stage replay times each layer's public functions on the run's own
// inputs, the last published version and the generator's next one, so
// the per-layer numbers come from outside the program without spans
// inside it.

// timeReps runs fn reps times and returns the median wall time in ms.
func timeReps(reps int, fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, ms(time.Since(start)))
	}
	return median(d), nil
}

// encodeBlob runs the chunked encode the producers run and returns its
// duration, the bytes it allocated, and (when keep) a copy of the blob:
// the encoder's buffer is pooled and released here.
func encodeBlob(ctx context.Context, ckpt *vformat.Checkpoint, opts vformat.ChunkOptions, keep bool) (time.Duration, uint64, []byte, error) {
	a0, t0 := totalAlloc(), time.Now()
	enc, err := vformat.NewChunkEncoder(ckpt, opts)
	if err != nil {
		return 0, 0, nil, err
	}
	defer enc.Release()
	if err := enc.EncodeStream(ctx, nil); err != nil {
		return 0, 0, nil, err
	}
	blob, err := enc.Blob()
	if err != nil {
		return 0, 0, nil, err
	}
	d, alloc := time.Since(t0), totalAlloc()-a0
	if !keep {
		return d, alloc, nil, nil
	}
	return d, alloc, append([]byte(nil), blob...), nil
}

// replayCodec times vformat's encode, hash, delta plan, decode and
// reconcile of next against prev. eps > 0 encodes with prev as the
// suppression base, as the drift producer does. It returns next's blob
// for the other layers' replays.
func replayCodec(cfg config, prev, next nn.Snapshot, eps float64, layer map[string]float64) ([]byte, error) {
	ctx := context.Background()
	plain := vformat.ChunkOptions{ChunkBytes: cfg.chunkBytes}
	_, _, prevBlob, err := encodeBlob(ctx, &vformat.Checkpoint{ModelName: benchModel, Version: 1, Weights: prev}, plain, true)
	if err != nil {
		return nil, err
	}
	nextCkpt := &vformat.Checkpoint{ModelName: benchModel, Version: 2, Weights: next}
	var encMs, encAlloc []float64
	var blob []byte
	for i := 0; i < cfg.replayReps; i++ {
		opts := plain
		if eps > 0 {
			// The encoder rewrites its base in place to the new wire
			// values, so every repetition starts from a fresh copy.
			opts.Base, opts.BaseEps = prev.Clone(), eps
		}
		d, alloc, b, err := encodeBlob(ctx, nextCkpt, opts, blob == nil)
		if err != nil {
			return nil, err
		}
		if b != nil {
			blob = b
		}
		encMs = append(encMs, ms(d))
		encAlloc = append(encAlloc, mib(float64(alloc)))
	}
	layer["vformat.encode_ms"] = median(encMs)
	layer["vformat.encode_alloc_MiB"] = median(encAlloc)

	prevHashes, err := vformat.ChunkHashesOf(prevBlob)
	if err != nil {
		return nil, err
	}
	have := make(map[vformat.ChunkHash]bool, len(prevHashes))
	for _, h := range prevHashes {
		have[h] = true
	}
	haveFn := func(h vformat.ChunkHash) bool { return have[h] }
	stages := []struct {
		name string
		fn   func() error
	}{
		{"vformat.hash_ms", func() error { _, err := vformat.ChunkHashesOf(blob); return err }},
		{"vformat.plan_delta_ms", func() error { _, _, _, _, err := vformat.PlanDelta(blob, haveFn); return err }},
		{"vformat.decode_ms", func() error { _, err := vformat.DecodeAuto(ctx, blob, 0); return err }},
	}
	for _, st := range stages {
		if layer[st.name], err = timeReps(cfg.replayReps, st.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	cache := vformat.NewChunkCache(0)
	if err := cache.PutAll(prevBlob); err != nil {
		return nil, err
	}
	manifest, _, _, _, err := vformat.BuildManifestBlob(blob, haveFn)
	if err != nil {
		return nil, err
	}
	layer["vformat.reconcile_ms"], err = timeReps(cfg.replayReps, func() error {
		_, _, err := vformat.ReconcileBlob(ctx, manifest, cache)
		return err
	})
	return blob, err
}

// replayServices times a staging-copy Set of blob on the KV server at
// metaAddr and a notification round trip on the pubsub server at
// notifyAddr.
func replayServices(cfg config, metaAddr, notifyAddr string, blob []byte, layer map[string]float64) error {
	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		return err
	}
	defer kv.Close()
	var keys []string
	layer["kvstore.staging_set_ms"], err = timeReps(cfg.replayReps, func() error {
		key := core.StagingKey(benchModel, 1<<40+uint64(len(keys)))
		keys = append(keys, key)
		return kv.Set(key, string(blob))
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := kv.Del(k); err != nil {
			return err
		}
	}
	ps, err := pubsub.DialClient(notifyAddr)
	if err != nil {
		return err
	}
	defer ps.Close()
	const channel = "e2ebench/rtt"
	events, err := ps.Subscribe(channel)
	if err != nil {
		return err
	}
	payload, err := (&core.ModelMeta{Name: benchModel, Version: 1, Path: core.CheckpointKey(benchModel, 1)}).Encode()
	if err != nil {
		return err
	}
	layer["pubsub.notify_rtt_ms"], err = timeReps(cfg.replayReps, func() error {
		if _, err := ps.Publish(channel, payload); err != nil {
			return err
		}
		select {
		case <-events:
			return nil
		case <-time.After(installTimeout):
			return fmt.Errorf("notification not delivered within %v", installTimeout)
		}
	})
	return err
}

// replayScratchServices runs replayServices against a KV and a pubsub
// server started for it, for workloads that run none.
func replayScratchServices(cfg config, blob []byte, layer map[string]float64) error {
	kvSrv := kvstore.NewServer(kvstore.NewStore())
	defer kvSrv.Close()
	metaAddr, err := kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	psSrv := pubsub.NewServer(pubsub.NewBroker(64))
	defer psSrv.Close()
	notifyAddr, err := psSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	return replayServices(cfg, metaAddr, notifyAddr, blob, layer)
}

// blobSource encodes the generator's versions the way the workload's
// producer does: against the previous wire values when eps > 0.
func blobSource(cfg config, gen func(uint64) nn.Snapshot, eps float64) func(uint64) ([]byte, error) {
	var base nn.Snapshot
	return func(v uint64) ([]byte, error) {
		snap := gen(v)
		opts := vformat.ChunkOptions{ChunkBytes: cfg.chunkBytes}
		if eps > 0 {
			if base == nil {
				base = snap.Clone()
			} else {
				opts.Base, opts.BaseEps = base, eps
			}
		}
		_, _, blob, err := encodeBlob(context.Background(), &vformat.Checkpoint{ModelName: benchModel, Version: v, Weights: snap}, opts, true)
		return blob, err
	}
}

// replayStore times chunkstore PutBlob of the workload's next versions
// (from first on) into a fresh store under scratchDir, then the
// recovery of reopenDir's store (the run's own store, or the scratch
// one when the workload has none) and a reload of its second-newest
// version.
func replayStore(cfg config, scratchDir, reopenDir string, blobs func(uint64) ([]byte, error), first uint64, layer map[string]float64) error {
	if err := os.RemoveAll(scratchDir); err != nil {
		return err
	}
	scratch, err := chunkstore.Open(scratchDir, chunkstore.Options{})
	if err != nil {
		return err
	}
	var put []float64
	for v := first; v < first+uint64(cfg.replayReps); v++ {
		blob, err := blobs(v)
		if err != nil {
			scratch.Close()
			return err
		}
		start := time.Now()
		if err := scratch.PutBlob(benchModel, v, core.CheckpointKey(benchModel, v), blob); err != nil {
			scratch.Close()
			return fmt.Errorf("put: %w", err)
		}
		put = append(put, ms(time.Since(start)))
	}
	layer["chunkstore.put_ms"] = median(put)
	if err := scratch.Close(); err != nil {
		return err
	}
	if reopenDir == "" {
		reopenDir = scratchDir
	}
	var st *chunkstore.Store
	layer["chunkstore.reopen_ms"], err = timeReps(cfg.replayReps, func() error {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		st, err = chunkstore.Open(reopenDir, chunkstore.Options{})
		return err
	})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	latest, ok := st.Latest(benchModel)
	if !ok || latest.Version < 2 {
		return fmt.Errorf("reopened store holds no history for %s", benchModel)
	}
	layer["chunkstore.load_version_ms"], err = timeReps(cfg.replayReps, func() error {
		_, err := st.LoadVersion(benchModel, latest.Version-1)
		return err
	})
	if err != nil {
		return fmt.Errorf("load version: %w", err)
	}
	stats := st.Stats()
	layer["chunkstore.live_bytes"] = float64(stats.LiveBytes)
	layer["chunkstore.segments"] = float64(stats.Segments)
	return nil
}
