// Package vformat implements Viper's lean checkpoint serialization: the
// model weights plus only the closely-related metadata (name, version,
// training iteration), with none of the per-object header, heap, and
// chunk-index overhead of the h5py-style baseline (internal/h5lite). The
// paper attributes Viper-PFS's ~1.2–1.3× advantage over the baseline to
// exactly this difference.
//
// The wire format is the chunked v2 container (chunk.go) and its
// manifest-bearing reconciliation form (manifest.go); every producer
// emits, and every consumer, relay and tool accepts, only those. The
// serial v1 encoding below (Checkpoint.Encode / Decode) is kept as the
// reference the chunked pipeline is tested and benchmarked against; no
// delivery path uses it.
package vformat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"viper/internal/nn"
)

const magic = "VPRF0001"

// Checkpoint is one serializable model checkpoint.
type Checkpoint struct {
	// ModelName identifies the model (e.g. "tc1").
	ModelName string
	// Version is the monotonically increasing checkpoint version.
	Version uint64
	// Iteration is the training iteration the snapshot was taken at.
	Iteration uint64
	// TrainLoss is the training loss at Iteration (used by the consumer
	// and the predictor as the inference-quality proxy).
	TrainLoss float64
	// Weights is the model state.
	Weights nn.Snapshot
}

// Encode serializes the checkpoint in the serial v1 reference layout.
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeString(&buf, c.ModelName)
	_ = binary.Write(&buf, binary.LittleEndian, c.Version)
	_ = binary.Write(&buf, binary.LittleEndian, c.Iteration)
	_ = binary.Write(&buf, binary.LittleEndian, c.TrainLoss)
	weights, err := c.Weights.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("vformat: weights: %w", err)
	}
	_ = binary.Write(&buf, binary.LittleEndian, uint64(len(weights)))
	buf.Write(weights)
	return buf.Bytes(), nil
}

// Decode parses a checkpoint serialized by Encode.
func Decode(b []byte) (*Checkpoint, error) {
	r := bytes.NewReader(b)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("vformat: header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("vformat: bad magic %q", head)
	}
	name, err := readString(r)
	if err != nil {
		return nil, fmt.Errorf("vformat: model name: %w", err)
	}
	var c Checkpoint
	c.ModelName = name
	if err := binary.Read(r, binary.LittleEndian, &c.Version); err != nil {
		return nil, fmt.Errorf("vformat: version: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &c.Iteration); err != nil {
		return nil, fmt.Errorf("vformat: iteration: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &c.TrainLoss); err != nil {
		return nil, fmt.Errorf("vformat: loss: %w", err)
	}
	var wlen uint64
	if err := binary.Read(r, binary.LittleEndian, &wlen); err != nil {
		return nil, fmt.Errorf("vformat: weights length: %w", err)
	}
	if wlen > uint64(r.Len()) {
		return nil, fmt.Errorf("vformat: weights length %d exceeds remaining %d bytes", wlen, r.Len())
	}
	wb := make([]byte, wlen)
	if _, err := io.ReadFull(r, wb); err != nil {
		return nil, fmt.Errorf("vformat: weights: %w", err)
	}
	c.Weights, err = nn.UnmarshalSnapshot(wb)
	if err != nil {
		return nil, fmt.Errorf("vformat: weights: %w", err)
	}
	return &c, nil
}

func writeString(buf *bytes.Buffer, s string) {
	_ = binary.Write(buf, binary.LittleEndian, uint32(len(s)))
	buf.WriteString(s)
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("vformat: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
