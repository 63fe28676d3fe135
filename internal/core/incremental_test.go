package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"viper/internal/nn"
	"viper/internal/tensor"
	"viper/internal/trace"
	"viper/internal/vformat"
)

func newTraceRecorder() *trace.Recorder { return trace.NewRecorder(0) }

func traceKind(s string) trace.Kind { return trace.Kind(s) }

// perturb nudges a fraction of the model's weights in place.
func perturb(m nn.Model, rng *rand.Rand, fraction, scale float64) {
	for _, p := range m.Params() {
		d := p.Value.Data()
		for i := range d {
			if rng.Float64() < fraction {
				d[i] += scale * rng.NormFloat64()
			}
		}
	}
}

// nudge moves n randomly chosen weights of the model: a sparse edit
// that dirties at most n chunks.
func nudge(m nn.Model, rng *rand.Rand, n int, scale float64) {
	params := m.Params()
	for i := 0; i < n; i++ {
		d := params[rng.Intn(len(params))].Value.Data()
		d[rng.Intn(len(d))] += scale * (1 + rng.Float64())
	}
}

// incrementalPair builds a producer/consumer wired for delta transfer.
// 256-byte chunks hold 32 float64s, so the 212-param test model spans
// 7 chunks and a sparse edit leaves most of them to reconcile.
func incrementalPair(t *testing.T, fullEvery int, virtualSize int64) (*WeightsHandler, *Consumer, *nn.Sequential, *nn.Sequential, *Env) {
	t.Helper()
	env, _ := newTestEnv()
	src := testModel(100)
	dst := testModel(101)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model:       "m",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true,
		FullEvery:   fullEvery,
		VirtualSize: virtualSize,
		ChunkSize:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "m", dst)
	if err != nil {
		t.Fatal(err)
	}
	return h, cons, src, dst, env
}

func TestIncrementalFirstSaveIsFull(t *testing.T) {
	h, cons, src, _, _ := incrementalPair(t, 10, 0)
	rep, err := h.Save(nn.TakeSnapshot(src), 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("first save format = %q, want full", rep.Meta.Format)
	}
	if _, ok, err := pollViaMeta(cons); err != nil || !ok {
		t.Fatalf("consumer load: %v %v", ok, err)
	}
}

// pollViaMeta loads the latest metadata directly (bypassing pub/sub).
func pollViaMeta(c *Consumer) (*LoadReport, bool, error) {
	meta, err := c.LatestMeta()
	if err != nil {
		return nil, false, err
	}
	rep, err := c.Load(meta)
	if err != nil {
		return nil, false, err
	}
	return rep, rep != nil, nil
}

func TestIncrementalDeltaChainRoundTrip(t *testing.T) {
	h, cons, src, dst, _ := incrementalPair(t, 10, 0)
	rng := rand.New(rand.NewSource(7))
	const updates = 5
	for v := 1; v <= updates; v++ {
		if v > 1 {
			nudge(src, rng, 2, 0.2) // sparse weight changes
		}
		rep, err := h.Save(nn.TakeSnapshot(src), uint64(v), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantFormat := "vrecon"
		if v == 1 {
			wantFormat = "vchunk"
		}
		if rep.Meta.Format != wantFormat {
			t.Fatalf("save %d format = %q, want %q", v, rep.Meta.Format, wantFormat)
		}
		if _, ok, err := pollViaMeta(cons); err != nil || !ok {
			t.Fatalf("load %d: %v %v", v, ok, err)
		}
	}
	// After the chain, the consumer's serving model matches exactly.
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-12) {
		t.Fatal("incremental chain must reconstruct the exact weights")
	}
}

func TestIncrementalDeltaSmallerAccountedSize(t *testing.T) {
	const full = 1 << 30
	h, _, _, _, env := incrementalPair(t, 10, full)
	cons, err := NewConsumer(env, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// A 4160-param model spans 130 chunks, so the manifest's fixed cost
	// (header plus 16 bytes per chunk) is small against the payload, as
	// at any real model size.
	src := nn.NewSequential("m", nn.NewDense("d", 64, 64, rng))
	rep1, err := h.Save(nn.TakeSnapshot(src), 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	if rep1.Meta.Size != full {
		t.Fatalf("full size = %d, want %d", rep1.Meta.Size, full)
	}
	nudge(src, rng, 4, 0.1)
	rep2, err := h.Save(nn.TakeSnapshot(src), 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Meta.Format != "vrecon" {
		t.Fatalf("format = %q", rep2.Meta.Format)
	}
	if rep2.Meta.Size >= full/4 {
		t.Fatalf("delta accounted size %d not much smaller than full %d", rep2.Meta.Size, full)
	}
	// Smaller payload → smaller stall.
	if rep2.Stall >= rep1.Stall {
		t.Fatalf("delta stall %v must be below full stall %v", rep2.Stall, rep1.Stall)
	}
}

func TestIncrementalFullRefreshCadence(t *testing.T) {
	h, cons, src, _, _ := incrementalPair(t, 3, 0)
	rng := rand.New(rand.NewSource(9))
	formats := []string{}
	for v := 1; v <= 7; v++ {
		nudge(src, rng, 1, 0.1)
		rep, err := h.Save(nn.TakeSnapshot(src), uint64(v), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		formats = append(formats, rep.Meta.Format)
		if _, _, err := pollViaMeta(cons); err != nil {
			t.Fatal(err)
		}
	}
	// FullEvery=3: versions 1, 4, 7 are full.
	want := []string{"vchunk", "vrecon", "vrecon", "vchunk", "vrecon", "vrecon", "vchunk"}
	if strings.Join(formats, ",") != strings.Join(want, ",") {
		t.Fatalf("formats = %v, want %v", formats, want)
	}
}

func TestIncrementalChainBreakDetected(t *testing.T) {
	h, cons, src, _, _ := incrementalPair(t, 100, 0)
	if _, err := h.Save(nn.TakeSnapshot(src), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	// v2 edits the first chunk; the consumer never sees it. v3 edits
	// the last chunk only, so its manifest elides v2's first chunk — a
	// record the consumer's cache (seeded by v1) cannot supply.
	params := src.Params()
	params[0].Value.Data()[0] += 0.5
	if _, err := h.Save(nn.TakeSnapshot(src), 2, 0.8); err != nil {
		t.Fatal(err)
	}
	// Discard v2's frame behind the consumer's back.
	env := h.env
	if _, ok := env.GPULink.TryRecv(); !ok {
		t.Fatal("expected v2 frame queued")
	}
	last := params[len(params)-1].Value.Data()
	last[len(last)-1] += 0.5
	rep, err := h.Save(nn.TakeSnapshot(src), 3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vrecon" {
		t.Fatalf("v3 format = %q, want vrecon", rep.Meta.Format)
	}
	meta, err := cons.LatestMeta()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Load(meta); !errors.Is(err, vformat.ErrMissingChunk) {
		t.Fatalf("err = %v, want ErrMissingChunk for the broken chain", err)
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

func TestHandlerConfigRejectsConflictingModes(t *testing.T) {
	env, _ := newTestEnv()
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true, Precision: vformat.PrecFloat16,
	}); err == nil {
		t.Fatal("incremental + quantized must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RoutePFS, Baseline: true},
		Incremental: true,
	}); err == nil {
		t.Fatal("incremental + baseline must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Precision: vformat.Precision(7),
	}); err == nil {
		t.Fatal("unknown precision must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true, DeltaEps: -0.5,
	}); err == nil {
		t.Fatal("negative delta threshold must be rejected")
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	env, _ := newTestEnv()
	rec := newTraceRecorder()
	env.Trace = rec
	h, _ := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	cons, _ := NewConsumer(env, "m", nil)
	if _, err := h.Save(nn.TakeSnapshot(testModel(40)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	s := rec.Summarize()
	for _, kind := range []string{"save", "stall", "load", "swap"} {
		if s.Counts[traceKind(kind)] != 1 {
			t.Fatalf("trace %s count = %d, want 1 (summary: %v)", kind, s.Counts[traceKind(kind)], s.Counts)
		}
	}
}
