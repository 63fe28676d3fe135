package main

import (
	"fmt"
	"math"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// benchModel is the model name every workload publishes under.
const benchModel = "bench"

// checkVersion verifies an install is the expected model and version.
func checkVersion(ckpt *vformat.Checkpoint, v uint64) error {
	if ckpt == nil {
		return fmt.Errorf("no checkpoint installed, want v%d", v)
	}
	if ckpt.ModelName != benchModel || ckpt.Version != v {
		return fmt.Errorf("installed %s/v%d, want %s/v%d", ckpt.ModelName, ckpt.Version, benchModel, v)
	}
	return nil
}

// sameShape verifies got has want's tensor names and sizes.
func sameShape(got, want nn.Snapshot) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tensors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Data) != len(want[i].Data) {
			return fmt.Errorf("tensor %d is %s[%d], want %s[%d]",
				i, got[i].Name, len(got[i].Data), want[i].Name, len(want[i].Data))
		}
	}
	return nil
}

// checkIdentical verifies got equals want bit for bit.
func checkIdentical(got, want nn.Snapshot) error {
	if err := sameShape(got, want); err != nil {
		return err
	}
	for i := range want {
		g, w := got[i].Data, want[i].Data
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				return fmt.Errorf("%s[%d] = %v, want %v", want[i].Name, j, g[j], w[j])
			}
		}
	}
	return nil
}

// checkWithin verifies every element of got is within eps of raw.
func checkWithin(got, raw nn.Snapshot, eps float64) error {
	if err := sameShape(got, raw); err != nil {
		return err
	}
	for i := range raw {
		g, r := got[i].Data, raw[i].Data
		for j := range r {
			if !(math.Abs(g[j]-r[j]) <= eps) {
				return fmt.Errorf("%s[%d] = %v, raw %v: off by more than %v", raw[i].Name, j, g[j], r[j], eps)
			}
		}
	}
	return nil
}
