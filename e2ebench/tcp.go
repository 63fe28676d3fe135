package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/relay"
	"viper/internal/remote"
	"viper/internal/vformat"
)

// installTimeout bounds one consumer's wait for one version.
const installTimeout = 10 * time.Second

// frameBuffer sizes each consumer's link pump: a whole 16 MiB stream
// (one header plus 64 chunk frames) with room for the next, because the
// frames can arrive before the notification that starts the drain.
const frameBuffer = 256

// tcpOptions selects one of the two TCP topologies.
type tcpOptions struct {
	relay     bool    // producer → relay → consumers; else the direct link
	consumers int     // consumer count
	deltaEps  float64 // producer base suppression (0 = exact dedup only)
}

// installResult is one return of a consumer's Next.
type installResult struct {
	ckpt *vformat.Checkpoint
	err  error
	at   time.Time
}

// tcpSystem is a real-TCP deployment in this process: KV metadata
// server, pubsub server, optional relay, one producer and its consumers,
// each consumer draining Next on its own goroutine.
type tcpSystem struct {
	opts  tcpOptions
	kvSrv *kvstore.Server
	psSrv *pubsub.Server
	relay *relay.Relay
	prod  *remote.Producer
	cons  []*remote.Consumer
	kv    *kvstore.Client // the driver's own, for staged-blob checks (dialed on first use)

	metaAddr, notifyAddr string

	results []chan installResult
	stop    chan struct{}
	wg      sync.WaitGroup

	// inputs and per-version state
	full      *fullInputs
	drift     *driftInputs
	cur       nn.Snapshot
	installed []*vformat.Checkpoint

	haveWait   []float64 // ms, untimed wait for the consumer's have-list
	driverGets int64     // KV gets the driver issued itself
}

// newTCPSystem brings the topology up. acct, when non-nil, wraps every
// connection the hooks reach.
func newTCPSystem(cfg config, opts tcpOptions, acct *connAcct) (_ *tcpSystem, err error) {
	s := &tcpSystem{opts: opts, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.kvSrv = kvstore.NewServer(kvstore.NewStore())
	if s.metaAddr, err = s.kvSrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.psSrv = pubsub.NewServer(pubsub.NewBroker(64))
	if s.notifyAddr, err = s.psSrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	consumerCfg := remote.ConsumerConfig{
		Model: benchModel, MetaAddr: s.metaAddr, NotifyAddr: s.notifyAddr,
		LinkDial:    acct.dial("consumer.link"),
		MetaDial:    acct.dial("consumer.meta"),
		FrameBuffer: frameBuffer,
		// Two versions' chunks: all delta reconciliation needs. The
		// default 1024-entry cache holds 256 MiB per consumer, which with
		// versions that never repeat would only fill with dead records.
		ChunkHashCache: 2 * cfg.modelBytes / cfg.chunkBytes,
	}
	producerCfg := remote.ProducerConfig{
		Model: benchModel, MetaAddr: s.metaAddr, NotifyAddr: s.notifyAddr,
		ChunkSize: cfg.chunkBytes, DeltaEps: opts.deltaEps,
	}
	if opts.relay {
		s.relay, err = relay.New(relay.Config{
			IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
			MetaAddr: s.metaAddr, NotifyAddr: s.notifyAddr,
			IngestWrap: acct.wrap("relay.ingest"),
			ServeWrap:  acct.wrap("relay.serve"),
		})
		if err != nil {
			return nil, err
		}
		producerCfg.RelayAddr = s.relay.IngestAddr()
		producerCfg.RelayDial = acct.dial("producer.link")
		if s.prod, err = remote.NewProducer(producerCfg); err != nil {
			return nil, err
		}
		consumerCfg.ProducerAddr = s.relay.ServeAddr()
		for i := 0; i < opts.consumers; i++ {
			c, err := remote.NewConsumer(consumerCfg)
			if err != nil {
				return nil, fmt.Errorf("consumer %d: %w", i, err)
			}
			s.cons = append(s.cons, c)
		}
	} else {
		if err := s.dialDirect(producerCfg, consumerCfg, acct); err != nil {
			return nil, err
		}
	}
	for i := range s.cons {
		s.results = append(s.results, make(chan installResult, 1))
		s.wg.Add(1)
		go s.consume(i)
	}
	s.installed = make([]*vformat.Checkpoint, len(s.cons))
	return s, nil
}

// dialDirect connects the direct-link producer and its one consumer:
// NewProducer blocks until the consumer's link arrives.
func (s *tcpSystem) dialDirect(pcfg remote.ProducerConfig, ccfg remote.ConsumerConfig, acct *connAcct) error {
	linkAddr := make(chan string, 1)
	pcfg.ListenAddr = "127.0.0.1:0"
	pcfg.OnListen = func(a string) { linkAddr <- a }
	pcfg.LinkWrap = acct.wrap("producer.link")
	type made struct {
		p   *remote.Producer
		err error
	}
	prodDone := make(chan made, 1)
	go func() {
		p, err := remote.NewProducer(pcfg)
		prodDone <- made{p, err}
	}()
	var addr string
	select {
	case addr = <-linkAddr:
	case m := <-prodDone:
		if m.err == nil {
			m.p.Close()
			return errors.New("producer returned without listening")
		}
		return m.err
	}
	ccfg.ProducerAddr = addr
	c, cerr := remote.NewConsumer(ccfg)
	if cerr != nil {
		// The producer still waits for its link; a bare dial releases
		// it so it can be closed.
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
		}
	}
	m := <-prodDone
	if m.err == nil {
		s.prod = m.p
	}
	if cerr != nil {
		return cerr
	}
	s.cons = append(s.cons, c)
	return m.err
}

// consume returns consumer i's installs to the driver until stop.
func (s *tcpSystem) consume(i int) {
	defer s.wg.Done()
	for {
		ckpt, err := s.cons[i].Next(installTimeout)
		r := installResult{ckpt: ckpt, err: err, at: time.Now()}
		select {
		case s.results[i] <- r:
		case <-s.stop:
			return
		}
	}
}

// close tears everything down; it is safe on a partial topology.
func (s *tcpSystem) close() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	for _, c := range s.cons {
		c.Close()
	}
	s.wg.Wait()
	if s.kv != nil {
		s.kv.Close()
	}
	if s.prod != nil {
		s.prod.Close()
	}
	if s.relay != nil {
		s.relay.Close()
	}
	if s.psSrv != nil {
		s.psSrv.Close()
	}
	if s.kvSrv != nil {
		s.kvSrv.Close()
	}
}

func (s *tcpSystem) prepare(v uint64) error {
	if s.drift == nil {
		s.cur = s.full.snapshot(v)
		return nil
	}
	s.cur = s.drift.snapshot(v)
	// The consumer advertises its chunk store after every install; the
	// producer must absorb advertisement v-1 before publish v or it
	// ships a full stream. Training cadence hides this turnaround in a
	// real deployment, so the closed loop waits it out untimed.
	start := time.Now()
	deadline := start.Add(installTimeout)
	for s.prod.Stats().HaveLists < int64(v-1) {
		if time.Now().After(deadline) {
			return fmt.Errorf("producer absorbed %d have-lists, want %d", s.prod.Stats().HaveLists, v-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.haveWait = append(s.haveWait, ms(time.Since(start)))
	return nil
}

func (s *tcpSystem) update(v uint64) (timing, error) {
	t := timing{start: time.Now(), installs: make([]time.Time, len(s.cons))}
	_, err := s.prod.Publish(s.cur, v, 1/float64(v))
	t.published = time.Now()
	if err != nil {
		return t, fmt.Errorf("publish: %w", err)
	}
	timeout := time.NewTimer(installTimeout + time.Second)
	defer timeout.Stop()
	for i := range s.cons {
		ckpt, at, err := s.await(i, v, t.start, timeout.C)
		if err != nil {
			return t, fmt.Errorf("consumer %d: %w", i+1, err)
		}
		s.installed[i], t.installs[i] = ckpt, at
		if at.After(t.end) {
			t.end = at
		}
	}
	return t, nil
}

// await returns consumer i's install of version v. Installs of older
// versions (late after an earlier failure) and timeouts that began
// before this update are skipped.
func (s *tcpSystem) await(i int, v uint64, since time.Time, timeout <-chan time.Time) (*vformat.Checkpoint, time.Time, error) {
	for {
		select {
		case r := <-s.results[i]:
			if r.err != nil {
				if r.at.Before(since) {
					continue
				}
				return nil, r.at, r.err
			}
			if r.ckpt.Version < v {
				continue
			}
			if err := checkVersion(r.ckpt, v); err != nil {
				return nil, r.at, err
			}
			return r.ckpt, r.at, nil
		case <-timeout:
			return nil, time.Time{}, fmt.Errorf("no install of v%d within %v", v, installTimeout)
		}
	}
}

func (s *tcpSystem) check(v uint64, _ int) error {
	if s.drift == nil {
		for i, ckpt := range s.installed {
			if err := checkIdentical(ckpt.Weights, s.cur); err != nil {
				return fmt.Errorf("consumer %d: %w", i+1, err)
			}
		}
		return nil
	}
	// A reconciled install must equal a full decode of the staged blob
	// (the delta elided chunks, never changed them) and stay within
	// DeltaEps of the raw weights.
	if s.kv == nil {
		kv, err := kvstore.Dial(s.metaAddr)
		if err != nil {
			return err
		}
		s.kv = kv
	}
	staged, err := s.kv.Get(core.StagingKey(benchModel, v))
	s.driverGets++
	if err != nil {
		return fmt.Errorf("staged blob: %w", err)
	}
	full, err := vformat.DecodeAuto(context.Background(), []byte(staged), 0)
	if err != nil {
		return fmt.Errorf("staged decode: %w", err)
	}
	for i, ckpt := range s.installed {
		if err := checkIdentical(ckpt.Weights, full.Weights); err != nil {
			return fmt.Errorf("consumer %d vs staged blob: %w", i+1, err)
		}
		if err := checkWithin(ckpt.Weights, s.cur, s.opts.deltaEps); err != nil {
			return fmt.Errorf("consumer %d vs raw weights: %w", i+1, err)
		}
	}
	return nil
}

// consumerStats sums every consumer's delivery counters.
func (s *tcpSystem) consumerStats() remote.ConsumerStats {
	var sum remote.ConsumerStats
	for _, c := range s.cons {
		st := c.Stats()
		sum.LinkLoads += st.LinkLoads
		sum.StagedLoads += st.StagedLoads
		sum.SkippedVersions += st.SkippedVersions
		sum.StaleNotifications += st.StaleNotifications
		sum.DiscardedFrames += st.DiscardedFrames
		sum.DeltaLoads += st.DeltaLoads
	}
	return sum
}
