package remote

import (
	"context"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// chunkHashes reads the process-wide SHA-256 pass count.
func chunkHashes() int64 { return vformat.Metrics().Counter("chunk_hashes").Value() }

// changedChunks counts the chunk positions whose records differ between
// two encodes of the same shape (hashing happens here, in the test, so
// callers must read chunkHashes afterwards).
func changedChunks(t *testing.T, a, b nn.Snapshot, chunkBytes int) int {
	t.Helper()
	hashesOf := func(s nn.Snapshot) []vformat.ChunkHash {
		blob, err := vformat.EncodeChunked(context.Background(), &vformat.Checkpoint{ModelName: "m", Weights: s}, vformat.ChunkOptions{ChunkBytes: chunkBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer vformat.ReleaseBuffer(blob)
		hs, err := vformat.ChunkHashesOf(blob)
		if err != nil {
			t.Fatal(err)
		}
		return hs
	}
	ha, hb := hashesOf(a), hashesOf(b)
	k := 0
	for i := range ha {
		if ha[i] != hb[i] {
			k++
		}
	}
	return k
}

// TestDirectDeltaHashesEachRecordOnce pins the once-per-process hash
// rule on the direct delta path: for a version of N chunks with k
// changed, the producer hashes each record once while encoding (delta
// planning and the need-list cache reuse those hashes) and the consumer
// hashes each of the k records it receives once (its assembler's hash
// keys both placement and the reconciliation cache). N + k in total —
// the producer re-hashing its blob to plan, or the consumer hashing a
// record for its cache and again to assemble, would show here.
func TestDirectDeltaHashesEachRecordOnce(t *testing.T) {
	const chunkSize = 64
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize, linkWait: 5 * time.Second})
	snap1 := nn.TakeSnapshot(testModel(73))
	if _, err := prod.Publish(snap1, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n := cons.cache.Len()
	waitPeerHave(t, prod, n)

	snap2 := nn.TakeSnapshot(testModel(73))
	snap2[0].Data[0] += 1
	last := snap2[len(snap2)-1].Data
	last[len(last)-1] += 1
	k := changedChunks(t, snap1, snap2, chunkSize)
	if k != 2 || n < 4 {
		t.Fatalf("fixture: %d of %d chunks changed, want 2 of several", k, n)
	}

	before := chunkHashes()
	if _, err := prod.Publish(snap2, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("installed v%d (equal=%v), want byte-identical v2", ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
	if s := cons.Stats(); s.DeltaLoads != 1 || s.StagedLoads != 0 {
		t.Fatalf("consumer stats %+v, want v2 as one link delta", s)
	}
	if got, want := chunkHashes()-before, int64(n+k); got != want {
		t.Fatalf("direct delta of %d chunks (%d changed) hashed %d records, want N+k = %d", n, k, got, want)
	}
}
