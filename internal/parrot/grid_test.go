package parrot

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

// TestGridIntoMatchesCellGrid checks the flat-grid path reproduces the
// legacy grid bit-for-bit. An untrained network suffices: conformance
// is about the two code paths agreeing, not feature quality.
func TestGridIntoMatchesCellGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := eedn.NewParrotNet(NBins, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExtractor(net, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(80, 144)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	legacy := e.CellGrid(img)
	var g hog.Grid
	e.GridInto(&g, img)
	if !reflect.DeepEqual(g.Views(), legacy) {
		t.Fatal("GridInto differs from CellGrid")
	}
	want, err := e.DescriptorAt(legacy, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DescriptorInto differs from DescriptorAt")
	}
}

// TestGridIntoSpikingMatchesCellHistogram checks the pooled-scratch
// grid against per-cell CellHistogram at an 8-spike window, the
// precision the Fig 5 pipeline scans with.
func TestGridIntoSpikingMatchesCellHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := eedn.NewParrotNet(NBins, 96, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExtractor(net, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(40, 24)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	var g hog.Grid
	e.GridInto(&g, img)
	for j := 0; j < g.CellsY; j++ {
		for i := 0; i < g.CellsX; i++ {
			want, err := e.CellHistogram(img.SubImage(i*8-1, j*8-1, CellSide, CellSide))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Hist(i, j), want) {
				t.Fatalf("cell (%d,%d): grid %v, CellHistogram %v", i, j, g.Hist(i, j), want)
			}
		}
	}
}

// TestGridIntoSpikingZeroAllocs pins the steady state of the 8-spike
// parrot grid: network scratch comes from the pool and the patch is
// staged in it, so a warm call allocates nothing.
func TestGridIntoSpikingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	net, err := eedn.NewParrotNet(NBins, 512, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExtractor(net, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 48)
	var g hog.Grid
	e.GridInto(&g, img)
	if allocs := testing.AllocsPerRun(5, func() { e.GridInto(&g, img) }); allocs != 0 {
		t.Errorf("GridInto allocs/op = %v, want 0", allocs)
	}
}
