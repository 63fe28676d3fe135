package vformat_test

import (
	"context"
	"fmt"
	"math/rand"

	"viper/internal/nn"
	"viper/internal/vformat"
)

func demoSnapshot() nn.Snapshot {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("demo", nn.NewDense("d", 4, 4, rng))
	return nn.TakeSnapshot(m)
}

// ExampleCheckpoint_Encode round-trips a checkpoint through Viper's lean
// wire format.
func ExampleCheckpoint_Encode() {
	ckpt := &vformat.Checkpoint{
		ModelName: "tc1",
		Version:   7,
		Iteration: 1512,
		TrainLoss: 0.042,
		Weights:   demoSnapshot(),
	}
	blob, _ := ckpt.Encode()
	back, _ := vformat.Decode(blob)
	fmt.Printf("%s v%d at iteration %d, %d tensors\n",
		back.ModelName, back.Version, back.Iteration, len(back.Weights))
	// Output:
	// tc1 v7 at iteration 1512, 2 tensors
}

// ExampleBuildManifestBlob ships the next version as a delta: only the
// chunk records the receiver does not already hold travel.
func ExampleBuildManifestBlob() {
	ctx := context.Background()
	base := demoSnapshot()
	opts := vformat.ChunkOptions{ChunkBytes: 64} // 8 float64s per chunk
	v1, _ := vformat.EncodeChunked(ctx, &vformat.Checkpoint{ModelName: "tc1", Version: 1, Weights: base}, opts)
	cache := vformat.NewChunkCache(0)
	_ = cache.PutAll(v1) // the receiver installed v1

	next := base.Clone()
	next[0].Data[3] += 1.5 // one weight changed
	v2, _ := vformat.EncodeChunked(ctx, &vformat.Checkpoint{ModelName: "tc1", Version: 2, Weights: next}, opts)
	held := map[vformat.ChunkHash]bool{}
	for _, h := range cache.Hashes() {
		held[h] = true
	}
	delta, hashes, carried, _, _ := vformat.BuildManifestBlob(v2, func(h vformat.ChunkHash) bool { return held[h] })
	fmt.Printf("chunks carried: %d of %d\n", carried, len(hashes))

	restored, _, _ := vformat.ReconcileBlob(ctx, delta, cache)
	fmt.Printf("restored matches: %v\n", restored.Weights[0].Data[3] == next[0].Data[3])
	// Output:
	// chunks carried: 1 of 3
	// restored matches: true
}

// ExampleEncodeChunked ships a checkpoint at half precision.
func ExampleEncodeChunked() {
	ctx := context.Background()
	ckpt := &vformat.Checkpoint{ModelName: "tc1", Weights: demoSnapshot()}
	full, _ := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	half, _ := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{Precision: vformat.PrecFloat16})
	fmt.Printf("float16 payload is smaller: %v\n", len(half) < len(full))
	// Output:
	// float16 payload is smaller: true
}
