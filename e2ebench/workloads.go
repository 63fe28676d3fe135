package main

import (
	"path/filepath"

	"viper/internal/nn"
	"viper/internal/relay"
	"viper/internal/remote"
)

// driftEps is direct_drift's producer suppression threshold.
const driftEps = 1e-3

func runFanoutFull(cfg config, res *result) error {
	return runTCP(cfg, res, tcpOptions{relay: true, consumers: 2})
}

func runDirectDrift(cfg config, res *result) error {
	return runTCP(cfg, res, tcpOptions{consumers: 1, deltaEps: driftEps})
}

// tcpCounters is a reading of every counter the traced TCP run reports.
type tcpCounters struct {
	prod       remote.ProducerStats
	cons       remote.ConsumerStats
	relay      relay.Stats
	reg        regSnap
	gc         gcState
	haveWaits  int
	driverGets int64
}

func readTCPCounters(s *tcpSystem) tcpCounters {
	c := tcpCounters{
		prod: s.prod.Stats(), cons: s.consumerStats(), reg: readRegistries(), gc: readGC(),
		haveWaits: len(s.haveWait), driverGets: s.driverGets,
	}
	if s.relay != nil {
		c.relay = s.relay.Stats()
	}
	return c
}

// runTCP measures one of the two TCP topologies and, when traced,
// derives its per-layer metrics.
func runTCP(cfg config, res *result, opts tcpOptions) error {
	var full *fullInputs
	var drift *driftInputs
	if opts.deltaEps > 0 {
		drift = newDriftInputs(cfg.seed, cfg.modelBytes, cfg.chunkBytes, opts.deltaEps)
	} else {
		full = newFullInputs(cfg.seed, cfg.modelBytes)
	}
	var acct *connAcct
	if cfg.trace {
		acct = newConnAcct()
	}
	var sys *tcpSystem
	bringUp := func() (system, error) {
		s, err := newTCPSystem(cfg, opts, acct)
		if err != nil {
			return nil, err
		}
		s.full, s.drift = full, drift
		sys = s
		return s, nil
	}
	var before, after tcpCounters
	enable := func(on bool) {
		if on {
			before = readTCPCounters(sys)
		} else {
			after = readTCPCounters(sys)
		}
		acct.on.Store(on)
		res.spans.on.Store(on)
	}
	next, err := measure(cfg, res, bringUp, enable)
	if err != nil {
		return err
	}
	defer sys.close()
	if !cfg.trace {
		return nil
	}
	if err := acct.write(cfg); err != nil {
		return err
	}
	return tcpLayers(cfg, res, sys, acct, before, after, next)
}

// tcpLayers fills the per-layer metrics of a traced TCP run: counter
// movement over the traced phase, connection accounting, spans, and the
// stage replay on the run's inputs and servers.
func tcpLayers(cfg config, res *result, s *tcpSystem, acct *connAcct, before, after tcpCounters, next uint64) error {
	l := res.layer
	n := float64(res.main.n())
	reg := after.reg
	l["transport.tcp_bytes_per_update"] = reg.delta(before.reg, "transport.tcp_bytes_sent") / n
	l["transport.tcp_frames_per_update"] = reg.delta(before.reg, "transport.tcp_frames_sent") / n
	l["transport.link_write_ms_per_update"] = acct.writeMs("producer.link") / n
	sent, deduped := reg.delta(before.reg, "transport.chunks_sent_total"), reg.delta(before.reg, "transport.chunks_deduped_total")
	if sent+deduped > 0 {
		l["transport.dedup_ratio"] = deduped / (sent + deduped)
	}
	l["transport.corrupt_frames"] = reg.delta(before.reg, "transport.tcp_corrupt_frames")

	l["remote.post_publish_ms_p50"] = median(res.main.post)
	loads := float64(after.cons.LinkLoads + after.cons.StagedLoads - before.cons.LinkLoads - before.cons.StagedLoads)
	if loads > 0 {
		l["remote.staged_load_ratio"] = float64(after.cons.StagedLoads-before.cons.StagedLoads) / loads
	}
	l["remote.link_failures"] = float64(after.prod.LinkFailures - before.prod.LinkFailures)
	l["remote.delta_send_ratio"] = float64(after.prod.DeltaSends-before.prod.DeltaSends) / n
	l["remote.have_list_wait_ms"] = median(s.haveWait[before.haveWaits:after.haveWaits])
	l["remote.stale_notifications_per_update"] = float64(after.cons.StaleNotifications-before.cons.StaleNotifications) / n

	if s.relay != nil {
		r0, r1 := before.relay, after.relay
		l["relay.ingest_frames_per_update"] = float64(r1.IngestFrames-r0.IngestFrames) / n
		l["relay.served_per_update"] = float64(r1.ServedVersions-r0.ServedVersions) / n
		chunks := float64(cfg.modelBytes / cfg.chunkBytes)
		l["relay.deduped_chunk_ratio"] = float64(r1.DedupedChunks-r0.DedupedChunks) / (n * chunks)
		l["relay.serve_write_ms_per_update"] = acct.writeMs("relay.serve") / n
		l["relay.abandoned_fanouts"] = float64(r1.AbandonedFanouts - r0.AbandonedFanouts)
		l["relay.cache_bytes"] = float64(relay.Metrics().Snapshot().Get("cache_bytes").Value)
	}

	l["kvstore.sets_per_update"] = reg.delta(before.reg, "kvstore.sets") / n
	l["kvstore.gets_per_update"] = (reg.delta(before.reg, "kvstore.gets") - float64(after.driverGets-before.driverGets)) / n
	l["pubsub.delivered_per_update"] = reg.delta(before.reg, "pubsub.delivered") / n
	runtimeLayers(l, before.gc, after.gc, n)
	benchLayers(res)

	// Replay inputs: the last published version and the generator's
	// next one.
	var prev, nextSnap nn.Snapshot
	if s.drift != nil {
		prev = s.cur.Clone()
		nextSnap = s.drift.snapshot(next)
	} else {
		prev = newSnapshot(cfg.modelBytes)
		s.full.regenerate(next-1, prev)
		nextSnap = s.full.snapshot(next)
	}
	blob, err := replayCodec(cfg, prev, nextSnap, s.opts.deltaEps, l)
	if err != nil {
		return err
	}
	if err := replayServices(cfg, s.metaAddr, s.notifyAddr, blob, l); err != nil {
		return err
	}
	gen := s.full.snapshot
	if s.drift != nil {
		gen = s.drift.snapshot
	}
	if err := replayStore(cfg, filepath.Join(workDir(cfg), "replay"), "", blobSource(cfg, gen, s.opts.deltaEps), next+1, l); err != nil {
		return err
	}
	// The replayed stages on the blocking path of each topology.
	path := []string{"vformat.encode_ms", "vformat.plan_delta_ms", "kvstore.staging_set_ms", "pubsub.notify_rtt_ms"}
	if s.relay != nil {
		// The relay hashes every ingested record; consumers decode.
		path = append(path, "vformat.hash_ms", "vformat.decode_ms")
	} else {
		path = append(path, "vformat.reconcile_ms")
	}
	stageCoverage(res, path)
	return nil
}

func runtimeLayers(l map[string]float64, before, after gcState, n float64) {
	l["runtime.gc_cycles_per_update"] = float64(after.cycles-before.cycles) / n
	l["runtime.gc_pause_ms_per_update"] = ms(after.pause-before.pause) / n
}

// benchLayers fills the benchmark's own per-layer figures: sample
// count, failure share and the tracing overhead.
func benchLayers(res *result) {
	l := res.layer
	l["bench.updates"] = float64(res.main.n())
	l["bench.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	l["bench.trace_overhead_ms"] = median(res.main.update) - median(res.untraced.update)
}

// stageCoverage reports how much of the traced update_ms_p50 the
// replayed stages on the blocking path account for.
func stageCoverage(res *result, path []string) {
	sum := 0.0
	for _, name := range path {
		sum += res.layer[name]
	}
	res.layer["bench.stage_coverage"] = sum / median(res.main.update)
}
