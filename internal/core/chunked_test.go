package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"viper/internal/nn"
	"viper/internal/tensor"
	"viper/internal/vformat"
)

// chunkedHandlerConsumer wires a handler with the chunked pipeline
// enabled to a consumer on a fresh environment.
func chunkedHandlerConsumer(t *testing.T, cfg HandlerConfig) (*Env, *WeightsHandler, *Consumer) {
	t.Helper()
	env, _ := newTestEnv()
	t.Cleanup(env.Close)
	h, err := NewWeightsHandler(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(env, cfg.Model, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env, h, c
}

// TestSaveChunkedRoutes: with ChunkSize set, every non-baseline route
// publishes "vchunk" and the consumer installs bit-identical weights.
func TestSaveChunkedRoutes(t *testing.T) {
	strategies := []Strategy{
		{Route: RouteGPU, Mode: ModeSync},
		{Route: RouteGPU, Mode: ModeAsync},
		{Route: RouteHost, Mode: ModeSync},
		{Route: RouteHost, Mode: ModeAsync},
		{Route: RoutePFS},
	}
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
				Model:     "tc1",
				Strategy:  s,
				ChunkSize: 4 << 10,
			})
			sub := c.Subscribe()
			defer sub.Close()
			model := testModel(1)
			snap := nn.TakeSnapshot(model)
			rep, err := h.Save(snap, 10, 0.5)
			if err != nil {
				t.Fatalf("Save: %v", err)
			}
			if rep.Meta.Format != "vchunk" {
				t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
			}
			msg := <-sub.C
			load, err := c.HandleNotification(msg)
			if err != nil {
				t.Fatalf("HandleNotification: %v", err)
			}
			if load == nil || load.Meta.Version != 1 {
				t.Fatalf("load = %+v", load)
			}
			got := c.ActiveModel()
			for i := range snap {
				for j := range snap[i].Data {
					if got.Weights[i].Data[j] != snap[i].Data[j] {
						t.Fatalf("weights differ at tensor %d elem %d", i, j)
					}
				}
			}
		})
	}
}

// TestSaveChunkedQuantized folds precision conversion into the chunk
// encoding: the consumer gets float16-rounded weights, and the virtual
// size accounting shrinks with the stride.
func TestSaveChunkedQuantized(t *testing.T) {
	const virtual = int64(1 << 30)
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize:   4 << 10,
		Precision:   vformat.PrecFloat16,
		VirtualSize: virtual,
	})
	sub := c.Subscribe()
	defer sub.Close()
	snap := nn.TakeSnapshot(testModel(2))
	rep, err := h.Save(snap, 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
	}
	if want := virtual / 4; rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d (float16 quarter)", rep.Meta.Size, want)
	}
	if _, err := c.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	got := c.ActiveModel()
	for i := range snap {
		for j, v := range snap[i].Data {
			if diff := math.Abs(got.Weights[i].Data[j] - v); diff > 2e-2*(1+math.Abs(v)) {
				t.Fatalf("tensor %d elem %d: %v vs %v beyond float16 tolerance", i, j, got.Weights[i].Data[j], v)
			}
		}
	}
}

func TestQuantizedTransferFloat32(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(20)
	dst := testModel(21)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model:     "m",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		Precision: vformat.PrecFloat32,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "m", dst)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Save(nn.TakeSnapshot(src), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q", rep.Meta.Format)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-5) {
		t.Fatal("float32 transfer must preserve predictions to ~1e-6")
	}
}

func TestQuantizedHalvesAccountedSize(t *testing.T) {
	const full = 1 << 30
	mk := func(p vformat.Precision) int64 {
		env, _ := newTestEnv()
		h, err := NewWeightsHandler(env, HandlerConfig{
			Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
			Precision: p, VirtualSize: full,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Save(nn.TakeSnapshot(testModel(30)), 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Meta.Size
	}
	s64 := mk(vformat.PrecFloat64)
	s32 := mk(vformat.PrecFloat32)
	s16 := mk(vformat.PrecFloat16)
	if !(s16 < s32 && s32 < s64) {
		t.Fatalf("accounted sizes %d/%d/%d must shrink with precision", s64, s32, s16)
	}
	if ratio := float64(s64) / float64(s32); ratio < 1.6 {
		t.Fatalf("f64/f32 accounted ratio = %.2f", ratio)
	}
}

// TestSaveChunkedFlushRecover: vchunk checkpoints are self-contained, so
// the PFS flush history can recover them after a consumer restart.
func TestSaveChunkedFlushRecover(t *testing.T) {
	env, h, _ := chunkedHandlerConsumer(t, HandlerConfig{
		Model:        "tc1",
		Strategy:     Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize:    4 << 10,
		FlushHistory: true,
	})
	snap := nn.TakeSnapshot(testModel(4))
	if _, err := h.Save(snap, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	// A fresh consumer (post-crash) recovers from the PFS copy alone.
	fresh, err := NewConsumer(env, "tc1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fresh.RecoverFromPFS()
	if err != nil {
		t.Fatalf("RecoverFromPFS: %v", err)
	}
	if rep.Meta.Format != "vchunk" || rep.Meta.Location != RoutePFS {
		t.Fatalf("recovered meta = %+v", rep.Meta)
	}
	if fresh.ActiveVersion() != 1 {
		t.Fatalf("active version = %d", fresh.ActiveVersion())
	}
}

// TestSaveContextCancelled: a cancelled save publishes nothing.
func TestSaveContextCancelled(t *testing.T) {
	env, h, _ := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize: 1 << 10,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := nn.TakeSnapshot(testModel(5))
	if _, err := h.SaveContext(ctx, snap, 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SaveContext = %v, want context.Canceled", err)
	}
	if _, err := env.Meta.Get(MetaKey("tc1")); err == nil {
		t.Fatal("metadata was published for a cancelled save")
	}
}

// TestSubscribeContextCancel: cancelling the context closes the
// subscription, unblocking receivers; closing early stops the relay.
func TestSubscribeContextCancel(t *testing.T) {
	_, _, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:    "tc1",
		Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
	})
	ctx, cancel := context.WithCancel(context.Background())
	sub := c.SubscribeContext(ctx)
	cancel()
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel still open after context cancel")
	}
	// The reverse order: Close first, the relay must exit on Done.
	sub2 := c.SubscribeContext(context.Background())
	sub2.Close()
	select {
	case <-sub2.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
}

// TestLoadContextCancelled: a cancelled load fetches nothing.
func TestLoadContextCancelled(t *testing.T) {
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize: 1 << 10,
	})
	sub := c.Subscribe()
	defer sub.Close()
	snap := nn.TakeSnapshot(testModel(6))
	if _, err := h.Save(snap, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.HandleNotificationContext(ctx, <-sub.C); !errors.Is(err, context.Canceled) {
		t.Fatalf("HandleNotificationContext = %v, want context.Canceled", err)
	}
	if c.ActiveModel() != nil {
		t.Fatal("model installed despite cancelled context")
	}
}
