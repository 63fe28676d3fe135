package vformat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viper/internal/nn"
)

// Delta checkpoints are manifest-bearing blobs: the next version is
// encoded against the previous one's wire values (ChunkOptions.Base /
// BaseEps), and BuildManifestBlob carries only the records whose
// content hashes the receiver does not already hold.

func twoSnapshots(seed int64, perturb float64, fraction float64) (nn.Snapshot, nn.Snapshot) {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewSequential("m",
		nn.NewDense("d1", 16, 32, rng),
		nn.NewTanh("t"),
		nn.NewDense("d2", 32, 8, rng),
	)
	base := nn.TakeSnapshot(m)
	next := base.Clone()
	for i := range next {
		for j := range next[i].Data {
			if rng.Float64() < fraction {
				next[i].Data[j] += perturb * rng.NormFloat64()
			}
		}
	}
	return base, next
}

// deltaResult is one base → next manifest delta and its reconciliation.
type deltaResult struct {
	delta   []byte      // manifest-bearing blob carrying only new records
	full    []byte      // plain chunked blob of next (the full alternative)
	got     nn.Snapshot // next as the receiver reconciles it
	wire    nn.Snapshot // the encoder's base after encoding next
	carried int
	chunks  int
}

// computeDelta ships next as a delta against base at eps: the receiver
// holds base's records in its cache, the sender encodes next with a
// clone of base as ChunkOptions.Base and elides every record the
// receiver holds.
func computeDelta(t *testing.T, base, next nn.Snapshot, eps float64, chunkBytes int) deltaResult {
	t.Helper()
	opts := ChunkOptions{ChunkBytes: chunkBytes}
	v1, h1 := encodeFull(t, &Checkpoint{ModelName: "m", Version: 1, Weights: base}, opts)
	cache := NewChunkCache(0)
	if err := cache.PutAll(v1); err != nil {
		t.Fatal(err)
	}
	have := make(map[ChunkHash]bool, len(h1))
	for _, h := range h1 {
		have[h] = true
	}
	wire := base.Clone()
	opts.Base, opts.BaseEps = wire, eps
	full, hashes := encodeFull(t, &Checkpoint{ModelName: "m", Version: 2, Weights: next}, opts)
	delta, _, carried, _, err := BuildManifestBlob(full, func(h ChunkHash) bool { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := ReconcileBlob(context.Background(), delta, cache)
	if err != nil {
		t.Fatal(err)
	}
	return deltaResult{delta: delta, full: full, got: ckpt.Weights, wire: wire, carried: carried, chunks: len(hashes)}
}

func TestComputeDeltaExactRoundTrip(t *testing.T) {
	base, next := twoSnapshots(1, 0.1, 0.2)
	r := computeDelta(t, base, next, 0, 256)
	for i := range next {
		for j := range next[i].Data {
			if r.got[i].Data[j] != next[i].Data[j] {
				t.Fatalf("tensor %d element %d: %v != %v", i, j, r.got[i].Data[j], next[i].Data[j])
			}
			// At eps 0 the encoder's base advances to exactly next.
			if r.wire[i].Data[j] != next[i].Data[j] {
				t.Fatalf("base not advanced at tensor %d element %d", i, j)
			}
		}
	}
	// The caller's snapshot is never the one mutated.
	base2, _ := twoSnapshots(1, 0.1, 0.2)
	for i := range base {
		for j := range base[i].Data {
			if base[i].Data[j] != base2[i].Data[j] {
				t.Fatal("delta encode must not modify the caller's base")
			}
		}
	}
}

func TestComputeDeltaSparsity(t *testing.T) {
	base, _ := twoSnapshots(2, 0, 0)
	next := mutateElems(base, 3, 2) // three isolated edits
	r := computeDelta(t, base, next, 0, 256)
	if r.carried == 0 || r.carried > 3 {
		t.Fatalf("carried %d of %d chunks, want 1..3 (one per edit at most)", r.carried, r.chunks)
	}
	if len(r.delta) > len(r.full)/2 {
		t.Fatalf("delta %dB not smaller than half the full %dB", len(r.delta), len(r.full))
	}
}

func TestComputeDeltaDenseFallback(t *testing.T) {
	base, next := twoSnapshots(3, 0.5, 1.0) // everything changed
	r := computeDelta(t, base, next, 0, 256)
	if r.carried != r.chunks {
		t.Fatalf("carried %d of %d chunks, want every chunk when all weights moved", r.carried, r.chunks)
	}
	for i := range next {
		for j := range next[i].Data {
			if r.got[i].Data[j] != next[i].Data[j] {
				t.Fatal("dense delta reconcile mismatch")
			}
		}
	}
}

func TestComputeDeltaThresholdLossy(t *testing.T) {
	base, next := twoSnapshots(4, 0.001, 1.0) // tiny changes everywhere
	r := computeDelta(t, base, next, 0.01, 256)
	if r.carried != 0 {
		t.Fatalf("carried %d chunks, want 0 with every change below the threshold", r.carried)
	}
	// Result equals the base (changes suppressed), within the threshold
	// of next.
	for i := range r.got {
		for j := range r.got[i].Data {
			if r.got[i].Data[j] != base[i].Data[j] {
				t.Fatal("suppressed delta must leave base values")
			}
			if math.Abs(r.got[i].Data[j]-next[i].Data[j]) > 0.01 {
				t.Fatal("reconstruction error exceeds threshold")
			}
		}
	}
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	base, next := twoSnapshots(5, 0.2, 0.01)
	v1, h1 := encodeFull(t, &Checkpoint{ModelName: "m", Version: 8, Weights: base}, ChunkOptions{ChunkBytes: 256})
	cache := NewChunkCache(0)
	if err := cache.PutAll(v1); err != nil {
		t.Fatal(err)
	}
	have := map[ChunkHash]bool{}
	for _, h := range h1 {
		have[h] = true
	}
	ckpt := &Checkpoint{ModelName: "m", Version: 9, Iteration: 1234, TrainLoss: 0.077, Weights: next}
	full, _ := encodeFull(t, ckpt, ChunkOptions{ChunkBytes: 256, Base: base.Clone()})
	delta, _, _, _, err := BuildManifestBlob(full, func(h ChunkHash) bool { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	got, reused, err := ReconcileBlob(context.Background(), delta, cache)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelName != "m" || got.Version != 9 || got.Iteration != 1234 || got.TrainLoss != 0.077 {
		t.Fatalf("metadata = %+v", got)
	}
	if reused == 0 {
		t.Fatal("a 1% edit should reuse some cached chunks")
	}
	direct, err := DecodeChunked(context.Background(), full, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertWeightsMatch(t, PrecFloat64, direct.Weights, got.Weights)
}

func TestDeltaErrors(t *testing.T) {
	base, next := twoSnapshots(6, 0.1, 0.01)
	if SameShape(base[:1], next) {
		t.Fatal("tensor count mismatch must not match")
	}
	// A base whose structure does not match is ignored: the encode is a
	// clean full one, byte-identical to encoding without a base.
	_, plain := encodeFull(t, &Checkpoint{ModelName: "m", Weights: next}, ChunkOptions{ChunkBytes: 256})
	_, mismatched := encodeFull(t, &Checkpoint{ModelName: "m", Weights: next},
		ChunkOptions{ChunkBytes: 256, Base: base[:1].Clone(), BaseEps: 1})
	for i := range plain {
		if plain[i] != mismatched[i] {
			t.Fatalf("chunk %d: mismatched base changed the encode", i)
		}
	}
	v1, h1 := encodeFull(t, &Checkpoint{ModelName: "m", Weights: base}, ChunkOptions{ChunkBytes: 256})
	warm := NewChunkCache(0)
	if err := warm.PutAll(v1); err != nil {
		t.Fatal(err)
	}
	have := map[ChunkHash]bool{}
	for _, h := range h1 {
		have[h] = true
	}
	full, _ := encodeFull(t, &Checkpoint{ModelName: "m", Weights: next}, ChunkOptions{ChunkBytes: 256})
	delta, _, _, _, err := BuildManifestBlob(full, func(h ChunkHash) bool { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReconcileBlob(context.Background(), delta, nil); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("delta without its base chunks = %v, want ErrMissingChunk", err)
	}
	if _, _, err := ReconcileBlob(context.Background(), []byte("junk"), nil); err == nil {
		t.Fatal("garbage must error")
	}
	if _, _, err := ReconcileBlob(context.Background(), delta[:len(delta)-4], warm); err == nil {
		t.Fatal("truncated delta must error")
	}
}

func TestPropDeltaRoundTripArbitraryChanges(t *testing.T) {
	f := func(seed int64, fracRaw, perturbRaw uint8) bool {
		frac := float64(fracRaw) / 255
		perturb := 0.01 + float64(perturbRaw)/64
		base, next := twoSnapshots(seed, perturb, frac)
		r := computeDelta(t, base, next, 0, 512)
		for i := range next {
			for j := range next[i].Data {
				if r.got[i].Data[j] != next[i].Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
