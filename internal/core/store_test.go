package core

import (
	"context"
	"testing"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/vformat"
)

// TestTimeTravelSaveHashesOnce: a save with a time-travel store attached
// hashes each chunk record exactly once — in the encoder — and the store
// write keys its records with those hashes. N per version; the store
// hashing the blob again would make it 2N. The stored version must still
// reload byte-identically and list exactly the encoder's hashes.
func TestTimeTravelSaveHashesOnce(t *testing.T) {
	env, _ := newTestEnv()
	st, err := chunkstore.Open(t.TempDir(), chunkstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize: 256, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := nn.TakeSnapshot(testModel(120))
	hashes := vformat.Metrics().Counter("chunk_hashes")
	before := hashes.Value()
	if _, err := h.Save(snap, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	got := hashes.Value() - before
	meta, ok := st.Meta("m", 1)
	if !ok {
		t.Fatal("v1 not in the time-travel store")
	}
	if n := len(meta.Hashes); n < 2 || got != int64(n) {
		t.Fatalf("save of %d chunks hashed %d records, want N = %d", n, got, n)
	}
	ckpt, err := h.LoadVersion(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		for j := range snap[i].Data {
			if ckpt.Weights[i].Data[j] != snap[i].Data[j] {
				t.Fatalf("reloaded tensor %d element %d differs", i, j)
			}
		}
	}
}
