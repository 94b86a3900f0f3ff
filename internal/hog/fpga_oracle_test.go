package hog

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/imgproc"
)

// oracleFPGACells is the FPGA model's cell pass one pixel at a time,
// frozen as it stood before the gradient table: clamped neighbours,
// saturating differences, the bit-serial Sqrt magnitude, the Atan2Bin
// bin and a saturating vote. It returns the Q8.8 histograms as
// [cellY][cellX][bin] floats.
func oracleFPGACells(img *imgproc.Image) [][][]float64 {
	q := fixed.Q16_8
	const cs, nb = 8, 9
	at := func(x, y int) int64 {
		x = min(max(x, 0), img.W-1)
		y = min(max(y, 0), img.H-1)
		return q.FromFloat(img.Pix[y*img.W+x])
	}
	grid := make([][][]float64, img.H/cs)
	for j := range grid {
		grid[j] = make([][]float64, img.W/cs)
		for i := range grid[j] {
			hist := make([]int64, nb)
			for y := j * cs; y < (j+1)*cs; y++ {
				for x := i * cs; x < (i+1)*cs; x++ {
					ix := q.Sub(at(x+1, y), at(x-1, y))
					iy := q.Sub(at(x, y-1), at(x, y+1))
					if ix == 0 && iy == 0 {
						continue
					}
					mag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
					bin := fixed.Atan2Bin(iy, ix, nb, false)
					hist[bin] = q.Add(hist[bin], mag)
				}
			}
			cell := make([]float64, nb)
			for b, v := range hist {
				cell[b] = q.ToFloat(v)
			}
			grid[j][i] = cell
		}
	}
	return grid
}

// requireFPGAMatchesOracle runs GridInto on g and compares every cell
// bin with the oracle, bit for bit.
func requireFPGAMatchesOracle(t *testing.T, e *FPGAExtractor, g *Grid, img *imgproc.Image, what string) {
	t.Helper()
	want := oracleFPGACells(img)
	e.GridInto(g, img)
	if g.CellsY != len(want) || g.CellsX != img.W/8 || g.Bins != 9 {
		t.Fatalf("%s: grid %dx%dx%d, want %dx%dx9", what, g.CellsX, g.CellsY, g.Bins, img.W/8, len(want))
	}
	for j, row := range want {
		for i, cell := range row {
			got := g.Hist(i, j)
			for b, v := range cell {
				if math.Float64bits(got[b]) != math.Float64bits(v) {
					t.Fatalf("%s: cell (%d,%d) bin %d = %v, oracle %v", what, i, j, b, got[b], v)
				}
			}
		}
	}
}

// fpgaPixelKinds generate the pixel populations the oracle tests
// cover: the FPGA's native [0, 1] range, hard binary edges, values far
// outside [0, 1], and edge cases around the table's reach and the
// Q8.8 rails.
var fpgaPixelKinds = []struct {
	name  string
	pixel func(rng *rand.Rand) float64
}{
	{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() }},
	{"binary", func(rng *rand.Rand) float64 { return float64(rng.Intn(2)) }},
	{"normal50", func(rng *rand.Rand) float64 { return rng.NormFloat64() * 50 }},
	{"special", func(rng *rand.Rand) float64 {
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 128, -128,
			0, 1, -1.0 / 256, 1 + 1.0/256, 2, -1, rng.Float64()}
		return vals[rng.Intn(len(vals))]
	}},
}

func fpgaTestImage(w, h int, pixel func(*rand.Rand) float64, rng *rand.Rand) *imgproc.Image {
	img := imgproc.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = pixel(rng)
	}
	return img
}

func TestFPGAGridIntoMatchesOracle(t *testing.T) {
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	// Fixed shapes: one cell, one-cell strips both ways, pixel strips
	// with no whole cell, sizes off the cell grid, and a full window.
	sizes := [][2]int{{8, 8}, {64, 8}, {8, 64}, {8, 1}, {1, 8}, {7, 7},
		{9, 17}, {63, 129}, {64, 128}}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, [2]int{1 + rng.Intn(90), 1 + rng.Intn(90)})
	}
	// One grid across every call, so stale storage would show.
	var g Grid
	for _, kind := range fpgaPixelKinds {
		for _, sz := range sizes {
			img := fpgaTestImage(sz[0], sz[1], kind.pixel, rng)
			requireFPGAMatchesOracle(t, e, &g, img, fmt.Sprintf("%s %dx%d", kind.name, sz[0], sz[1]))
		}
	}
}

// TestFPGADescriptorMatchesOracle carries the oracle cells through
// the block stage: DescriptorInto on the engine's grid equals
// DescriptorAt on the oracle's.
func TestFPGADescriptorMatchesOracle(t *testing.T) {
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for _, kind := range fpgaPixelKinds {
		img := fpgaTestImage(80, 144, kind.pixel, rng)
		var g Grid
		e.GridInto(&g, img)
		want, err := e.DescriptorAt(oracleFPGACells(img), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.DescriptorInto(nil, &g, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: feature %d = %v, oracle %v", kind.name, i, got[i], want[i])
			}
		}
	}
}

// TestGradTableExhaustive checks every table entry, in every sign
// quadrant, against the datapath functions it was built from.
func TestGradTableExhaustive(t *testing.T) {
	q := fixed.Q16_8
	tab := sharedGradTable()
	for iy := int64(-gradTableSpan); iy <= gradTableSpan; iy++ {
		for ix := int64(-gradTableSpan); ix <= gradTableSpan; ix++ {
			mag, bin := tab.lookup(ix, iy)
			wantMag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
			wantBin := fixed.Atan2Bin(iy, ix, fpgaBins, fpgaSigned)
			if mag != wantMag || bin != wantBin {
				t.Fatalf("lookup(%d, %d) = (%d, %d), want (%d, %d)", ix, iy, mag, bin, wantMag, wantBin)
			}
		}
	}
}

func TestFPGAGridIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	img := noiseImage(96, 160, 3)
	var g Grid
	e.GridInto(&g, img)
	if allocs := testing.AllocsPerRun(5, func() { e.GridInto(&g, img) }); allocs != 0 {
		t.Errorf("FPGA GridInto allocs/op = %v, want 0", allocs)
	}
}

// decodeFuzzPixels turns fuzz bytes into a w×h image, one pixel per
// token: a byte b <= 250 is the 8-bit pixel b/250; 251-253 are NaN,
// +Inf and -Inf; 254 takes the next two bytes as a raw Q8.8 value
// (little-endian int16, so anything on the datapath's range); 255
// takes the next eight as the bits of an arbitrary float64. Pixels
// past the end of data are 0.
func decodeFuzzPixels(w, h int, data []byte) *imgproc.Image {
	img := imgproc.New(w, h)
	for i := range img.Pix {
		if len(data) == 0 {
			break
		}
		b := data[0]
		data = data[1:]
		switch {
		case b <= 250:
			img.Pix[i] = float64(b) / 250
		case b == 251:
			img.Pix[i] = math.NaN()
		case b == 252:
			img.Pix[i] = math.Inf(1)
		case b == 253:
			img.Pix[i] = math.Inf(-1)
		case b == 254 && len(data) >= 2:
			img.Pix[i] = float64(int16(binary.LittleEndian.Uint16(data))) / 256
			data = data[2:]
		case b == 255 && len(data) >= 8:
			img.Pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	return img
}

// FuzzFPGAGridEquivalence holds GridInto to the per-pixel oracle on
// fuzzed image sizes (1..80 each way) and pixels. Its seeds are the
// committed corpus in testdata/fuzz/FuzzFPGAGridEquivalence.
func FuzzFPGAGridEquivalence(f *testing.F) {
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		img := decodeFuzzPixels(int(w)%80+1, int(h)%80+1, data)
		var g Grid
		requireFPGAMatchesOracle(t, e, &g, img, fmt.Sprintf("%dx%d", img.W, img.H))
	})
}
