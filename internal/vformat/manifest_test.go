package vformat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"viper/internal/nn"
)

// encodeFull encodes ckpt as a plain chunked blob plus its hashes,
// copying the pooled blob so tests can hold it freely.
func encodeFull(t *testing.T, ckpt *Checkpoint, opts ChunkOptions) ([]byte, []ChunkHash) {
	t.Helper()
	enc, err := NewChunkEncoder(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Blob()
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := enc.Hashes()
	if err != nil {
		t.Fatal(err)
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	hcp := make([]ChunkHash, len(hashes))
	copy(hcp, hashes)
	return cp, hcp
}

// mutateElems bumps k well-spread elements of snap, returning the
// mutated clone (the "edit distance" knob of the property tests).
func mutateElems(snap nn.Snapshot, k int, seed int64) nn.Snapshot {
	out := snap.Clone()
	total := 0
	for _, nt := range out {
		total += len(nt.Data)
	}
	if total == 0 || k == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		pos := rng.Intn(total)
		for ti := range out {
			if pos < len(out[ti].Data) {
				out[ti].Data[pos] += 1 + rng.Float64()
				break
			}
			pos -= len(out[ti].Data)
		}
	}
	return out
}

// TestDecodeAutoManifestBlob is the staged-backfill regression test:
// before manifest support, DecodeAuto rejected a manifest-bearing blob
// as unknown magic, so a consumer recovering from the KV store after a
// relay death could not decode what a delta-mode producer staged. A
// full manifest-bearing blob must decode with no cache at all.
func TestDecodeAutoManifestBlob(t *testing.T) {
	ckpt := chunkTestCheckpoint(1, 10_000)
	blob, _ := encodeFull(t, ckpt, ChunkOptions{Precision: PrecFloat64, ChunkBytes: 1 << 12})
	full, _, _, _, err := BuildManifestBlob(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAuto(context.Background(), full, 0)
	if err != nil {
		t.Fatalf("DecodeAuto(manifest-bearing full blob) = %v, want success", err)
	}
	assertWeightsMatch(t, PrecFloat64, ckpt.Weights, got.Weights)
	if got.Version != ckpt.Version || got.ModelName != ckpt.ModelName {
		t.Fatalf("metadata mismatch: %+v", got)
	}

	// A wire delta (records elided) must fail loudly, not decode torn.
	have := map[ChunkHash]bool{}
	hashes, err := ChunkHashesOf(blob)
	if err != nil {
		t.Fatal(err)
	}
	have[hashes[0]] = true
	delta, _, _, _, err := BuildManifestBlob(blob, func(h ChunkHash) bool { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAuto(context.Background(), delta, 0); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("DecodeAuto(partial delta) = %v, want ErrMissingChunk", err)
	}
}

// TestReconcileProperty sweeps chunk size × precision × edit distance
// and asserts the reconciled checkpoint is byte-identical to the full
// decode of the same version — the tentpole's correctness invariant.
func TestReconcileProperty(t *testing.T) {
	for _, chunkBytes := range []int{512, 4 << 10, 64 << 10} {
		for _, prec := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
			for _, edits := range []int{0, 1, 37, 900} {
				name := fmt.Sprintf("chunk=%d/prec=%s/edits=%d", chunkBytes, prec, edits)
				t.Run(name, func(t *testing.T) {
					opts := ChunkOptions{Precision: prec, ChunkBytes: chunkBytes}
					v1 := chunkTestCheckpoint(2, 9_001)
					blob1, _ := encodeFull(t, v1, opts)

					cache := NewChunkCache(0)
					if err := cache.PutAll(blob1); err != nil {
						t.Fatal(err)
					}

					v2 := &Checkpoint{
						ModelName: v1.ModelName, Version: v1.Version + 1,
						Iteration: v1.Iteration + 100, TrainLoss: 0.03,
						Weights: mutateElems(v1.Weights, edits, int64(edits)+3),
					}
					blob2, hashes2 := encodeFull(t, v2, opts)

					held := map[ChunkHash]bool{}
					for _, h := range cache.Hashes() {
						held[h] = true
					}
					delta, _, carried, elided, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
					if err != nil {
						t.Fatal(err)
					}
					if edits == 0 && carried != 0 {
						t.Fatalf("no edits but %d records carried", carried)
					}
					if carried+int(elidedCount(hashes2, held)) != len(hashes2) {
						t.Fatalf("carried %d + elided %d != %d chunks", carried, elidedCount(hashes2, held), len(hashes2))
					}
					_ = elided

					rec, reused, err := ReconcileBlob(context.Background(), delta, cache)
					if err != nil {
						t.Fatal(err)
					}
					if reused != len(hashes2)-carried {
						t.Fatalf("reused %d, want %d", reused, len(hashes2)-carried)
					}
					full, err := DecodeChunked(context.Background(), blob2, 0)
					if err != nil {
						t.Fatal(err)
					}
					// Byte identity: both decodes must match exactly, no
					// precision tolerance — they decode the same wire bytes.
					for i := range full.Weights {
						if !bytes.Equal(f64bytes(full.Weights[i].Data), f64bytes(rec.Weights[i].Data)) {
							t.Fatalf("tensor %s: reconciled weights differ from full decode", full.Weights[i].Name)
						}
					}
					if rec.Version != v2.Version || rec.Iteration != v2.Iteration {
						t.Fatalf("metadata mismatch: %+v", rec)
					}
				})
			}
		}
	}
}

func f64bytes(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func elidedCount(hashes []ChunkHash, held map[ChunkHash]bool) int {
	n := 0
	for _, h := range hashes {
		if held[h] {
			n++
		}
	}
	return n
}

// TestBaseSuppressionStabilizesChunks: with Base set, a version whose
// weights only drifted within eps must re-encode every chunk
// byte-identically, so the whole snapshot dedups away; one real edit
// must dirty exactly the chunks covering it.
func TestBaseSuppressionStabilizesChunks(t *testing.T) {
	opts := ChunkOptions{Precision: PrecFloat64, ChunkBytes: 4 << 10}
	v1 := chunkTestCheckpoint(4, 8_000)
	base := v1.Weights.Clone()
	opts.Base = base
	blob1, h1 := encodeFull(t, v1, opts)
	_ = blob1

	// Drift every element by less than eps.
	drifted := v1.Weights.Clone()
	rng := rand.New(rand.NewSource(9))
	for _, nt := range drifted {
		for i := range nt.Data {
			nt.Data[i] += (rng.Float64() - 0.5) * 1e-7
		}
	}
	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1, Weights: drifted}
	opts.Base, opts.BaseEps = base, 1e-6
	_, h2 := encodeFull(t, v2, opts)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("chunk %d hash changed under pure drift", i)
		}
	}

	// One real edit dirties only its covering chunk.
	edited := drifted.Clone()
	edited[2].Data[10] += 5
	v3 := &Checkpoint{ModelName: v1.ModelName, Version: v2.Version + 1, Weights: edited}
	opts.Base, opts.BaseEps = base, 1e-6
	_, h3 := encodeFull(t, v3, opts)
	changed := 0
	for i := range h2 {
		if h2[i] != h3[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("one element edit dirtied %d chunks, want 1", changed)
	}
}

// TestManifestAssemblerChaosResend: the chaos drill. A receiver
// advertised chunks it since evicted; the manifest-based assembly must
// surface exactly the missing hashes as a need-list and complete once
// they are re-sent — never assemble a torn checkpoint.
func TestManifestAssemblerChaosResend(t *testing.T) {
	opts := ChunkOptions{Precision: PrecFloat64, ChunkBytes: 2 << 10}
	v1 := chunkTestCheckpoint(6, 12_000)
	blob1, hashes1 := encodeFull(t, v1, opts)
	cache := NewChunkCache(0)
	if err := cache.PutAll(blob1); err != nil {
		t.Fatal(err)
	}

	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1,
		Weights: mutateElems(v1.Weights, 5, 11)}
	blob2, hashes2 := encodeFull(t, v2, opts)
	held := map[ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	delta, _, _, _, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}

	// Evict two advertised chunks between advertisement and delivery.
	evicted := []ChunkHash{}
	for _, h := range hashes2 {
		if held[h] {
			evicted = append(evicted, h)
			cache.Drop(h)
			if len(evicted) == 2 {
				break
			}
		}
	}
	if len(evicted) != 2 {
		t.Skip("not enough reused chunks to evict")
	}

	asm, err := NewManifestAssembler(delta, cache)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Complete() {
		t.Fatal("assembly completed despite evicted chunks")
	}
	if _, err := asm.Checkpoint(); !errors.Is(err, ErrIncompleteStream) {
		t.Fatalf("Checkpoint on torn assembly = %v, want ErrIncompleteStream", err)
	}
	need := asm.MissingHashes()
	if len(need) != 2 {
		t.Fatalf("need-list has %d hashes, want 2", len(need))
	}
	needSet := map[ChunkHash]bool{}
	for _, h := range need {
		needSet[h] = true
	}
	for _, h := range evicted {
		if !needSet[h] {
			t.Fatalf("evicted hash %s not in need-list", h)
		}
	}

	// The sender re-sends the needed records from its full blob.
	err = WalkChunkRecords(blob2, func(rec []byte) error {
		if needSet[HashChunkRecord(rec)] {
			if _, err := asm.Add(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !asm.Complete() {
		t.Fatal("assembly incomplete after re-send")
	}
	rec, err := asm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Weights {
		if !bytes.Equal(f64bytes(full.Weights[i].Data), f64bytes(rec.Weights[i].Data)) {
			t.Fatalf("tensor %s differs after chaos re-send", full.Weights[i].Name)
		}
	}
}

// TestChunkCacheLRU: the cache holds at most max entries, evicting the
// least recently used.
func TestChunkCacheLRU(t *testing.T) {
	c := NewChunkCache(2)
	recs := [][]byte{{1}, {2}, {3}}
	var hs []ChunkHash
	for _, r := range recs {
		h := HashChunkRecord(r)
		hs = append(hs, h)
		c.Put(h, r)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(hs[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.Get(hs[1]); !ok {
		t.Fatal("recent entry evicted")
	}
	// Refresh hs[1], insert a fourth: hs[2] must go, not hs[1].
	c.Put(HashChunkRecord([]byte{4}), []byte{4})
	if _, ok := c.Get(hs[1]); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := c.Get(hs[2]); ok {
		t.Fatal("stale entry survived")
	}
	// Cached bytes are copies, not aliases.
	src := []byte{9, 9}
	h := HashChunkRecord(src)
	c.Put(h, src)
	src[0] = 0
	got, _ := c.Get(h)
	if got[0] != 9 {
		t.Fatal("cache aliased caller bytes")
	}
}

// TestManifestRoundTrip: manifest encode/parse round-trips header,
// layout, and hash list, and rejects corruption.
func TestManifestRoundTrip(t *testing.T) {
	ckpt := chunkTestCheckpoint(8, 5_000)
	blob, hashes := encodeFull(t, ckpt, ChunkOptions{Precision: PrecFloat32, ChunkBytes: 1 << 12})
	_, _, headerLen, err := ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	man := EncodeManifest(blob[:headerLen], hashes)
	parsed, err := ParseManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len != len(man) {
		t.Fatalf("manifest length %d, want %d", parsed.Len, len(man))
	}
	if len(parsed.Hashes) != len(hashes) {
		t.Fatalf("parsed %d hashes, want %d", len(parsed.Hashes), len(hashes))
	}
	for i := range hashes {
		if parsed.Hashes[i] != hashes[i] {
			t.Fatalf("hash %d mismatch", i)
		}
	}
	if !bytes.Equal(parsed.Header, blob[:headerLen]) {
		t.Fatal("embedded header mismatch")
	}
	// Flip one hash byte: the manifest CRC must catch it.
	bad := make([]byte, len(man))
	copy(bad, man)
	bad[len(man)-10] ^= 0xff
	if _, err := ParseManifest(bad); err == nil {
		t.Fatal("corrupt manifest parsed")
	}
}

// TestHashListRoundTrip covers the packed have-list wire helpers.
func TestHashListRoundTrip(t *testing.T) {
	hs := []ChunkHash{HashChunkRecord([]byte{1}), HashChunkRecord([]byte{2})}
	packed := AppendHashes(nil, hs)
	got, err := SplitHashes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != hs[0] || got[1] != hs[1] {
		t.Fatalf("round-trip mismatch: %v", got)
	}
	if _, err := SplitHashes(packed[:17]); err == nil {
		t.Fatal("ragged hash list accepted")
	}
}

// TestPlanDeltaHashesMatchesPlanDelta: planning from the encoder's
// hashes is the same plan PlanDelta derives by hashing the blob —
// byte-identical manifest, the same records in order, the same hashes
// and elided bytes — for a full plan and a partial one, and likewise
// for the manifest blob built from it. A hash list of the wrong length
// is refused rather than planned against.
func TestPlanDeltaHashesMatchesPlanDelta(t *testing.T) {
	opts := ChunkOptions{ChunkBytes: 256}
	base := chunkTestSnapshot(31, 900)
	_, prevHashes := encodeFull(t, &Checkpoint{ModelName: "m", Version: 1, Weights: base}, opts)
	blob, encHashes := encodeFull(t, &Checkpoint{ModelName: "m", Version: 2, Weights: mutateElems(base, 3, 32)}, opts)
	held := make(map[ChunkHash]bool, len(prevHashes))
	for _, h := range prevHashes {
		held[h] = true
	}
	for _, have := range []func(ChunkHash) bool{nil, func(h ChunkHash) bool { return held[h] }} {
		wantMan, wantRecs, wantHashes, wantElided, err := PlanDelta(blob, have)
		if err != nil {
			t.Fatal(err)
		}
		if have != nil && (len(wantRecs) == 0 || len(wantRecs) == len(wantHashes)) {
			t.Fatalf("fixture: %d of %d records carried, want a partial plan", len(wantRecs), len(wantHashes))
		}
		gotMan, gotRecs, gotElided, err := PlanDeltaHashes(blob, encHashes, have)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotMan, wantMan) || gotElided != wantElided || len(gotRecs) != len(wantRecs) {
			t.Fatalf("plan differs: manifest equal=%v, elided %d vs %d, %d vs %d records",
				bytes.Equal(gotMan, wantMan), gotElided, wantElided, len(gotRecs), len(wantRecs))
		}
		for i := range wantRecs {
			if !bytes.Equal(gotRecs[i], wantRecs[i]) {
				t.Fatalf("record %d differs", i)
			}
		}
		if len(wantHashes) != len(encHashes) {
			t.Fatalf("PlanDelta hashed %d chunks, encoder %d", len(wantHashes), len(encHashes))
		}
		for i := range wantHashes {
			if wantHashes[i] != encHashes[i] {
				t.Fatalf("hash %d: PlanDelta %s, encoder %s", i, wantHashes[i], encHashes[i])
			}
		}
	}
	if len(encHashes) < 3 {
		t.Fatalf("fixture spans only %d chunks", len(encHashes))
	}
	for _, bad := range [][]ChunkHash{encHashes[1:], append(append([]ChunkHash(nil), encHashes...), ChunkHash{}), nil} {
		if _, _, _, err := PlanDeltaHashes(blob, bad, nil); err == nil {
			t.Fatalf("%d hashes for %d chunks: want an error", len(bad), len(encHashes))
		}
	}
}

// TestRecordWalksDoNotAllocateWeights: walking, hashing and planning
// records needs the header's layout, not storage for the weights. Each
// of these used to parse the header into a weight-sized skeleton and
// drop it — a model-sized allocation per call on the publish and relay
// ingest paths.
func TestRecordWalksDoNotAllocateWeights(t *testing.T) {
	const elems = 1 << 17
	const weightBytes = elems * 8
	blob, hashes := encodeFull(t, &Checkpoint{ModelName: "m", Version: 1, Weights: chunkTestSnapshot(41, elems)}, ChunkOptions{ChunkBytes: 64 << 10})
	manifest, _, _, err := PlanDeltaHashes(blob, hashes, func(ChunkHash) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	walks := map[string]func() error{
		"WalkChunkRecords": func() error { return WalkChunkRecords(blob, func([]byte) error { return nil }) },
		"ChunkHashesOf":    func() error { _, err := ChunkHashesOf(blob); return err },
		"PlanDeltaHashes":  func() error { _, _, _, err := PlanDeltaHashes(blob, hashes, nil); return err },
		"ParseManifest":    func() error { _, err := ParseManifest(manifest); return err },
		"ParseChunkHeader": func() error { _, _, _, err := ParseChunkHeader(blob); return err },
		"ChunkRecords":     func() error { _, _, _, err := ChunkRecords(blob); return err },
	}
	for name, walk := range walks {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := walk(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > weightBytes/8 {
			t.Errorf("%s allocated %d bytes for %d bytes of weights, want under an eighth", name, got, weightBytes)
		}
	}
}
