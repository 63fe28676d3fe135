package relay

import (
	"context"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// chunkHashes reads the process-wide SHA-256 pass count.
func chunkHashes() int64 { return vformat.Metrics().Counter("chunk_hashes").Value() }

// TestFanOutHashesEachRecordOncePerProcess pins the once-per-process
// hash rule across the fan-out topology: a delta-capable producer
// pushes through a memory-only relay to two consumers, and a version in
// which every element moved is hashed exactly once per hop — the
// producer's encoder, the relay's ingest, each consumer's receive. 4N
// for N chunks; a producer re-hashing its blob to plan the delta or a
// relay hashing a record again to intern it would show here.
func TestFanOutHashesEachRecordOncePerProcess(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(), Retry: quickPolicy(61), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	consumers := make([]*remote.Consumer, 2)
	for i := range consumers {
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(62 + i)),
			LinkWait: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		consumers[i] = c
	}
	install := func(v uint64, want nn.Snapshot) {
		t.Helper()
		for i, c := range consumers {
			ckpt, err := c.Next(10 * time.Second)
			if err != nil {
				t.Fatalf("consumer %d before v%d: %v", i, v, err)
			}
			if ckpt.Version != v || !snapshotsEqual(ckpt.Weights, want) {
				t.Fatalf("consumer %d installed v%d, want byte-identical v%d", i, ckpt.Version, v)
			}
		}
	}

	snap1 := nn.TakeSnapshot(testModel(64))
	if _, err := prod.Publish(snap1, 10, 0.5); err != nil {
		t.Fatal(err)
	}
	install(1, snap1)
	// The relay's upstream have-list turns the next publish into a delta
	// push — the path whose planning used to re-hash the whole blob.
	waitFor(t, 5*time.Second, func() bool { return prod.Stats().HaveLists >= 1 }, "relay have-list at the producer")

	snap2 := nn.TakeSnapshot(testModel(65))
	before := chunkHashes()
	if _, err := prod.Publish(snap2, 20, 0.4); err != nil {
		t.Fatal(err)
	}
	install(2, snap2)
	got := chunkHashes() - before

	if s := prod.Stats(); s.DeltaSends != 1 {
		t.Fatalf("producer stats %+v, want v2 pushed as a delta", s)
	}
	for i, c := range consumers {
		if s := c.Stats(); s.StagedLoads != 0 || s.DeltaLoads != 0 {
			t.Fatalf("consumer %d stats %+v, want full link loads only", i, s)
		}
	}
	n := 0
	for _, vi := range r.Inventory() {
		if vi.Version == 2 {
			n = vi.Chunks
		}
	}
	if n < 2 {
		t.Fatalf("v2 has %d chunks, want several", n)
	}
	if want := int64(4 * n); got != want {
		t.Fatalf("fan-out of %d chunks to 2 consumers hashed %d records, want 4N = %d", n, got, want)
	}
}

// TestDeltaIngestAndPersistHashOnce: a store-backed relay ingesting a
// delta version whose every record is missing hashes each record once
// at ingest; the intern and the store write reuse that hash (the store
// still CRC-checks the bytes). N, where hashing again under the lock
// and again in the store would make it 3N.
func TestDeltaIngestAndPersistHashOnce(t *testing.T) {
	r := storeRelay(t, t.TempDir(), 4, chunkstore.Retention{})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	blob, hashes := encodeVersion(t, "m", 1, nn.TakeSnapshot(testModel(66)), 128)
	manifest, records, _, _, err := vformat.PlanDelta(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(hashes) || len(hashes) < 2 {
		t.Fatalf("planned %d of %d records, want every record of several", len(records), len(hashes))
	}
	tags := ingestTags(t, "m", 1, int64(len(blob)), true)
	before := chunkHashes()
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(link, tags), "m/v00000001", manifest, records, len(hashes), len(blob), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		s := r.Stats()
		return s.DeltaVersions == 1 && s.StoredVersions == 1
	}, "delta version committed and stored")
	if got, want := chunkHashes()-before, int64(len(hashes)); got != want {
		t.Fatalf("ingest+persist of %d records hashed %d, want N = %d", len(hashes), got, want)
	}
	for _, vi := range r.Inventory() {
		if vi.Version == 1 && !vi.Stored {
			t.Fatal("v1 not persisted")
		}
	}
}

// TestDeltaIngestStrayRecordNeverInterned is the relay's trust
// boundary: it hashes every record it receives rather than trusting the
// wire. A CRC-valid record whose bytes hash to no missing manifest
// entry (here: the same chunk position from a different checkpoint)
// counts as a stray frame, is never interned, and the version still
// commits byte-identically from the genuine records.
func TestDeltaIngestStrayRecordNeverInterned(t *testing.T) {
	r := testRelay(t, 4)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	snap := nn.TakeSnapshot(testModel(67))
	blob, hashes := encodeVersion(t, "m", 1, snap, 128)
	other, _ := encodeVersion(t, "m", 1, nn.TakeSnapshot(testModel(68)), 128)
	manifest, records, _, _, err := vformat.PlanDelta(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stray []byte
	if err := vformat.WalkChunkRecords(other, func(rec []byte) error {
		if stray == nil {
			stray = rec
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	strayHash := vformat.HashChunkRecord(stray)
	if !vformat.VerifyChunkRecord(stray) {
		t.Fatal("fixture: stray record must pass its CRC")
	}
	for _, h := range hashes {
		if h == strayHash {
			t.Fatal("fixture: stray record collides with the manifest")
		}
	}
	// Lead with the stray: it arrives while its position is still
	// missing, so only the content hash can tell it apart.
	tags := ingestTags(t, "m", 1, int64(len(blob)), true)
	withStray := append([][]byte{stray}, records...)
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(link, tags), "m/v00000001", manifest, withStray, len(hashes), len(blob), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "delta version committed")
	if s := r.Stats(); s.StrayFrames != 1 || s.CorruptChunks != 0 {
		t.Fatalf("relay stats %+v, want exactly the one stray frame", s)
	}
	r.mu.Lock()
	_, interned := r.chunks[strayHash]
	r.mu.Unlock()
	if interned {
		t.Fatal("stray record was interned into the chunk store")
	}
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	hf, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), hf, cons.Recv)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatal("committed version is not byte-identical to the genuine records")
	}
}
