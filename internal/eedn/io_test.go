package eedn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewParrotNet(18, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := net.Forward(x)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := got.Forward(x)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output %d differs after round trip: %v vs %v", i, out[i], want[i])
		}
	}
	// The loaded network must be trainable (optimizer state rebuilt).
	xs := [][]float64{x}
	ys := [][]float64{make([]float64, 18)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := got.Train(xs, ys, cfg); err != nil {
		t.Fatalf("loaded network not trainable: %v", err)
	}
}

func TestSaveLoadConvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewMonolithicNet(rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, net.InDim())
	for i := range x {
		x[i] = float64(i%9) / 9
	}
	a, b := net.Forward(x), got.Forward(x)
	if a[0] != b[0] {
		t.Fatalf("conv round trip output differs: %v vs %v", a[0], b[0])
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":2,"layers":[]}`,
		`{"version":1,"layers":[]}`,
		`{"version":1,"layers":[{"kind":"warp"}]}`,
		`{"version":1,"layers":[{"kind":"dense","in":2,"out":1,"hidden":[1],"bias":[0]}]}`,
		`{"version":1,"layers":[{"kind":"conv","in_c":3,"out_c":4,"groups":2,"k":3,"stride":1,"in_h":8,"in_w":8,"hidden":[],"bias":[]}]}`,
		// A kernel larger than its input: OutH = OutW = -1 would give
		// OutDim 1 and a bias-only output.
		`{"version":1,"layers":[{"kind":"conv","in_c":1,"out_c":1,"groups":1,"k":3,"stride":1,"in_h":1,"in_w":1,"hidden":[0,0,0,0,0,0,0,0,0],"bias":[0]}]}`,
		// Weights beyond the float64 range would decode to infinities.
		`{"version":1,"layers":[{"kind":"dense","in":2,"out":1,"hidden":[1e999,0],"bias":[0]}]}`,
		`{"version":1,"layers":[{"kind":"dense","in":2,"out":1,"hidden":[0,0],"bias":[-1e400]}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail to load", i)
		}
	}
}
