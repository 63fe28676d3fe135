package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/relay"
	"viper/internal/transport"
	"viper/internal/vformat"
)

func testBlob(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("m", nn.NewDense("d1", 6, 10, rng), nn.NewTanh("t"), nn.NewDense("d2", 10, 3, rng))
	ckpt := &vformat.Checkpoint{
		ModelName: "m", Version: 3, Iteration: 30, TrainLoss: 0.25,
		Weights: nn.TakeSnapshot(m),
	}
	blob, err := vformat.EncodeChunked(context.Background(), ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestInspectChunked covers all four mode combinations over a chunked
// v2 blob; the layout report must not error on any of them.
func TestInspectChunked(t *testing.T) {
	blob := testBlob(t)
	for _, stats := range []bool{false, true} {
		for _, jsonOut := range []bool{false, true} {
			if err := inspect(blob, stats, jsonOut); err != nil {
				t.Fatalf("inspect(stats=%v, json=%v): %v", stats, jsonOut, err)
			}
		}
	}
}

// TestInspectCorruptChunkedRejected: a corrupted chunk container is
// reported as an error, not silently dumped.
func TestInspectCorruptChunkedRejected(t *testing.T) {
	blob := testBlob(t)
	blob[len(blob)-3] ^= 0xFF // inside the last chunk's payload/CRC area
	if err := inspect(blob, false, false); err == nil {
		t.Fatal("inspect accepted a corrupt chunked blob")
	}
}

// TestInspectTooShort keeps the pre-existing short-file guard.
func TestInspectTooShort(t *testing.T) {
	if err := inspect([]byte("VPRC"), false, true); err == nil {
		t.Fatal("inspect accepted a 4-byte file")
	}
}

// TestRetiredMagicsRejected: the v1 encodings — lean (VPRF), quantized
// (VPRQ) and delta (VPRD) — are no longer a wire format, so both the
// inspector and vformat.DecodeAuto refuse them instead of decoding.
func TestRetiredMagicsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ckpt := &vformat.Checkpoint{ModelName: "m", Version: 1,
		Weights: nn.TakeSnapshot(nn.NewSequential("m", nn.NewDense("d", 4, 4, rng)))}
	v1, err := ckpt.Encode() // the serial reference layout, magic VPRF0001
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"VPRF0001", "VPRQ0001", "VPRD0001"} {
		t.Run(magic, func(t *testing.T) {
			blob := append([]byte(magic), v1[len(magic):]...)
			for _, jsonOut := range []bool{false, true} {
				if err := inspect(blob, false, jsonOut); err == nil {
					t.Fatalf("inspect(json=%v) accepted retired magic %s", jsonOut, magic)
				}
			}
			if _, err := vformat.DecodeAuto(context.Background(), blob, 0); err == nil {
				t.Fatalf("DecodeAuto accepted retired magic %s", magic)
			}
		})
	}
}

// TestInspectRelay pushes one chunked version into a live relay and
// dumps its inventory in both output modes; an unreachable relay must
// surface as an error.
func TestInspectRelay(t *testing.T) {
	r, err := relay.New(relay.Config{IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	rng := rand.New(rand.NewSource(2))
	ckpt := &vformat.Checkpoint{
		ModelName: "m", Version: 5,
		Weights: nn.TakeSnapshot(nn.NewSequential("m", nn.NewDense("d", 4, 8, rng))),
	}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tagged := transport.WithMeta(link, map[string]string{"model": "m", "version": "5"})
	if err := transport.SendChunked(context.Background(), tagged, "m/v00000005", enc, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().CachedVersions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never cached the pushed version")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, jsonOut := range []bool{false, true} {
		if err := inspectRelay(r.IngestAddr(), jsonOut); err != nil {
			t.Fatalf("inspectRelay(json=%v): %v", jsonOut, err)
		}
	}
	if err := inspectRelay("127.0.0.1:1", false); err == nil {
		t.Fatal("inspectRelay reached a dead address")
	}
}
