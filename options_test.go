package viper

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/vformat"
)

// optionsPair builds a producer through the functional-options API and
// a consumer next to it.
func optionsPair(t *testing.T, opts ...Option) (*Producer, *Consumer) {
	t.Helper()
	env := NewEnv(NewVirtualClock())
	prod, err := NewProducer(env, "nt3", opts...)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "nt3")
	if err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

// TestOptionsDefaultIsChunked: without options, NewProducer ships
// checkpoints through the chunked pipeline.
func TestOptionsDefaultIsChunked(t *testing.T) {
	prod, cons := optionsPair(t)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(1)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("default format = %q, want vchunk", rep.Meta.Format)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	if cons.ActiveVersion() != 1 {
		t.Fatalf("active version = %d", cons.ActiveVersion())
	}
}

// TestOptionsChunkSizeZeroIsDefault: the chunked pipeline is the only
// wire format, so WithChunkSize(0) selects DefaultChunkSize rather than
// switching chunking off; a negative size is refused.
func TestOptionsChunkSizeZeroIsDefault(t *testing.T) {
	env := NewEnv(NewVirtualClock())
	prod, err := NewProducer(env, "nt3", WithChunkSize(0))
	if err != nil {
		t.Fatal(err)
	}
	m := models.NT3(rand.New(rand.NewSource(2)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
	}
	payload, err := env.Cluster.Producer.GPU.Read(rep.Meta.Path)
	if err != nil {
		t.Fatal(err)
	}
	layout, _, _, err := vformat.ParseChunkHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultChunkSize / 8; layout.ChunkElems != want {
		t.Fatalf("chunk elems = %d, want %d (DefaultChunkSize)", layout.ChunkElems, want)
	}
	if _, err := NewProducer(env, "nt3", WithChunkSize(-1)); err == nil {
		t.Fatal("negative chunk size must be rejected")
	}
}

// TestOptionsCompose: the options land on the handler configuration.
func TestOptionsCompose(t *testing.T) {
	prod, cons := optionsPair(t,
		WithStrategy(Strategy{Route: RouteHost, Mode: ModeSync}),
		WithVirtualSize(1<<30),
		WithFlushHistory(),
		WithChunkSize(2<<10),
		WithParallelism(2),
	)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(3)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" || rep.Meta.Location != RouteHost {
		t.Fatalf("format/location = %q/%q, want vchunk/host", rep.Meta.Format, rep.Meta.Location)
	}
	if want := int64(1 << 30); rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d", rep.Meta.Size, want)
	}
	if got := prod.Handler().Stats().FlushedBytes; got != 1<<30 {
		t.Fatalf("flushed %d bytes, want the accounted %d", got, 1<<30)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsPrecision: WithPrecision folds quantization into the chunk
// encoding and shrinks the accounted size with the stride.
func TestOptionsPrecision(t *testing.T) {
	prod, cons := optionsPair(t,
		WithPrecision(PrecFloat32),
		WithVirtualSize(1<<30),
		WithChunkSize(2<<10),
	)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(5)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
	}
	if want := int64(1<<30) / 2; rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d (float32 half)", rep.Meta.Size, want)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

// TestSaveWeightsContextCancelled: the public context-aware save
// surfaces cancellation and publishes nothing.
func TestSaveWeightsContextCancelled(t *testing.T) {
	prod, cons := optionsPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := models.NT3(rand.New(rand.NewSource(4)), 32)
	if _, err := prod.SaveWeightsContext(ctx, nn.TakeSnapshot(m), 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SaveWeightsContext = %v, want context.Canceled", err)
	}
	if _, err := cons.LatestMeta(); err == nil {
		t.Fatal("metadata published for a cancelled save")
	}
}

// TestConsumerOptionsBaseContext: WithBaseContext bounds the
// context-free API forms — a cancelled base context aborts
// HandleNotification before anything is installed.
func TestConsumerOptionsBaseContext(t *testing.T) {
	env := NewEnv(NewVirtualClock())
	prod, err := NewProducer(env, "nt3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cons, err := NewConsumer(env, "nt3", WithBaseContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(13)), 32)
	if _, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cons.HandleNotification(<-sub.C); !errors.Is(err, context.Canceled) {
		t.Fatalf("HandleNotification = %v, want context.Canceled", err)
	}
	if cons.ActiveModel() != nil {
		t.Fatal("cancelled load installed a checkpoint")
	}
}
