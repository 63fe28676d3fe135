package main

import (
	"math/rand"

	"viper/internal/nn"
)

// tensorParts splits the model over a few tensors of different sizes
// (8:4:3:1 sixteenths of the elements), like the dense layers of a
// small MLP.
var tensorParts = []struct {
	name string
	part int
}{
	{"dense1/kernel", 8}, {"dense2/kernel", 4}, {"dense3/kernel", 3}, {"head/kernel", 1},
}

// newSnapshot allocates a zeroed float64 snapshot of modelBytes.
func newSnapshot(modelBytes int) nn.Snapshot {
	elems := modelBytes / 8
	snap := make(nn.Snapshot, len(tensorParts))
	for i, t := range tensorParts {
		n := elems / 16 * t.part
		snap[i] = nn.NamedTensor{Name: t.name, Shape: []int{n / 256, 256}, Data: make([]float64, n)}
	}
	return snap
}

func fillNormal(rng *rand.Rand, snap nn.Snapshot, scale float64) {
	for _, t := range snap {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64() * scale
		}
	}
}

func cloneInto(dst, src nn.Snapshot) {
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
}

// forRange calls fn on each tensor's slice of the flattened element
// range [lo, hi).
func forRange(snap nn.Snapshot, lo, hi int, fn func(data []float64)) {
	off := 0
	for _, t := range snap {
		n := len(t.Data)
		a, b := max(lo-off, 0), min(hi-off, n)
		if a < b {
			fn(t.Data[a:b])
		}
		off += n
	}
}

// stampStride spaces the per-version stamps so that every chunk of the
// default (and any larger) chunk size carries several.
const stampStride = 4096

// fullInputs generates versions in which every element moves: version v
// is base v%fullBases (independent normal weights) with every
// stampStride-th element set to a value unique to v, so no chunk repeats
// across versions and content-addressed dedup finds nothing to elide.
type fullInputs struct {
	bases []nn.Snapshot // working buffers: base values plus the latest stamps
}

const fullBases = 3

func newFullInputs(seed int64, modelBytes int) *fullInputs {
	rng := rand.New(rand.NewSource(seed))
	f := &fullInputs{}
	for i := 0; i < fullBases; i++ {
		b := newSnapshot(modelBytes)
		fillNormal(rng, b, 0.05)
		f.bases = append(f.bases, b)
	}
	return f
}

func stamp(snap nn.Snapshot, v uint64) {
	off := 0
	for _, t := range snap {
		for i := (stampStride - off%stampStride) % stampStride; i < len(t.Data); i += stampStride {
			t.Data[i] = float64(v) + float64(off+i)*1e-9
		}
		off += len(t.Data)
	}
}

// snapshot returns version v's weights. The buffer is reused fullBases
// versions later, so it must not be retained past that.
func (f *fullInputs) snapshot(v uint64) nn.Snapshot {
	s := f.bases[v%fullBases]
	stamp(s, v)
	return s
}

// regenerate writes version v's weights into dst.
func (f *fullInputs) regenerate(v uint64, dst nn.Snapshot) {
	cloneInto(dst, f.bases[v%fullBases])
	stamp(dst, v)
}

// driftInputs generates the steady-state training tail delta
// reconciliation targets: every element jitters below eps around a
// centre, and each version moves the centres of about driftShare of the
// chunks by far more than eps. The jitter is bounded around a fixed
// centre rather than a random walk, so the changed-chunk share stays put
// over a run of any length.
type driftInputs struct {
	centers    nn.Snapshot
	cur        nn.Snapshot
	rng        *rand.Rand
	seed       int64
	chunkElems int
	chunks     int
	moved      int
	eps        float64
}

// driftShare is the changed-chunk share per version (BENCH_7 measured
// 21 of 264 chunks at the steady state of TC1 training).
const driftShare = 0.08

// driftStep is how far a moved chunk's centre shifts, in units of eps.
const driftStep = 50

func newDriftInputs(seed int64, modelBytes, chunkBytes int, eps float64) *driftInputs {
	d := &driftInputs{
		centers:    newSnapshot(modelBytes),
		cur:        newSnapshot(modelBytes),
		rng:        rand.New(rand.NewSource(seed)),
		seed:       seed,
		chunkElems: chunkBytes / 8,
		eps:        eps,
	}
	fillNormal(d.rng, d.centers, 0.05)
	elems := modelBytes / 8
	d.chunks = (elems + d.chunkElems - 1) / d.chunkElems
	d.moved = max(1, int(float64(d.chunks)*driftShare+0.5))
	return d
}

// snapshot returns version v's raw weights (valid until the next call).
func (d *driftInputs) snapshot(v uint64) nn.Snapshot {
	if v > 1 {
		for _, c := range d.rng.Perm(d.chunks)[:d.moved] {
			shift := driftStep * d.eps
			if d.rng.Intn(2) == 0 {
				shift = -shift
			}
			forRange(d.centers, c*d.chunkElems, (c+1)*d.chunkElems, func(data []float64) {
				for i := range data {
					data[i] += shift
				}
			})
		}
	}
	// Jitter in [-0.4, 0.4)·eps: any two draws differ by less than eps,
	// so an unmoved element is always suppressed against the value it
	// last published.
	x := (uint64(d.seed)*0x9e3779b97f4a7c15 ^ v) | 1
	for ti, t := range d.cur {
		c := d.centers[ti].Data
		for i := range t.Data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			u := float64(x>>11) / (1 << 53)
			t.Data[i] = c[i] + (u-0.5)*0.8*d.eps
		}
	}
	return d.cur
}
