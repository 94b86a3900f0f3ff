package hog

import (
	"fmt"
	"sync"

	"repro/internal/fixed"
	"repro/internal/imgproc"
)

// FPGAExtractor models the 16-bit fixed-point HoG accelerator of Advani
// et al. (the paper's baseline, "FPGA-HoG"): 9 orientation bins over
// 0-180 deg, weighted voting in magnitude without interpolation,
// fixed-point gradient/magnitude datapath, 2x2-cell blocks with L2
// normalization applied in fixed point.
//
// It produces descriptors bit-compatible with a Q8.8 datapath: pixels
// are quantized on ingest, derivatives and magnitudes computed with
// saturating fixed-point arithmetic (the magnitude by the bit-serial
// Q.Sqrt), and the orientation bin given by fixed.Atan2Bin, a float64
// arctangent model of the hardware's bin comparisons. For pixel
// differences of at most one (every pair of pixels in [0, 1]) both
// results come from a precomputed table filled by those same two
// functions, so the table changes no bit; other pixels run the
// arithmetic per pixel.
type FPGAExtractor struct {
	cfg Config
	q   fixed.Q
	tab *gradTable
}

// The published design's orientation binning; gradTable is built for
// it.
const (
	fpgaBins   = 9
	fpgaSigned = false
)

// NewFPGAExtractor returns the fixed-point baseline extractor. The
// configuration is fixed to the published design (9 unsigned bins,
// magnitude voting, L2 norm); only the window geometry is a parameter.
// The first call builds the shared gradient table (about 0.26 MB).
func NewFPGAExtractor(windowW, windowH int) (*FPGAExtractor, error) {
	cfg := Config{
		CellSize: 8, NBins: fpgaBins, Signed: fpgaSigned,
		Voting: VoteMagnitude, Norm: NormL2,
		BlockCells: 2, BlockStride: 1,
		WindowW: windowW, WindowH: windowH,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FPGAExtractor{cfg: cfg, q: fixed.Q16_8, tab: sharedGradTable()}, nil
}

// gradTableSpan is the largest raw pixel difference |ix|, |iy| the
// gradient table covers: one unit in Q8.8, the widest difference of
// two pixels in [0, 1].
const (
	gradTableSpan = 256
	gradTableSide = gradTableSpan + 1
)

// gradTable holds the Q8.8 datapath's result for every pair of raw
// pixel differences (ix, iy) with |ix|, |iy| <= gradTableSpan, indexed
// by |iy|*gradTableSide + |ix|. Each entry packs the magnitude
// q.Sqrt(ix*ix + iy*iy) in bits 0-15 and, in the four nibbles from bit
// 16 up, the bin fixed.Atan2Bin(iy, ix) of each sign quadrant k =
// 2*(ix < 0) + (iy < 0). The magnitude and bins depend on the signs
// and sizes of the differences only, and a difference this small
// cannot saturate, so a lookup equals the per-pixel arithmetic.
type gradTable [gradTableSide * gradTableSide]uint32

var (
	gradTableOnce sync.Once
	gradTableData *gradTable
)

// sharedGradTable returns the package's gradient table, building it on
// first use.
func sharedGradTable() *gradTable {
	gradTableOnce.Do(func() { gradTableData = buildGradTable(fixed.Q16_8) })
	return gradTableData
}

// buildGradTable fills every entry by calling the datapath functions
// themselves, so the table is bit-identical to them by construction.
func buildGradTable(q fixed.Q) *gradTable {
	t := new(gradTable)
	for ay := int64(0); ay <= gradTableSpan; ay++ {
		for ax := int64(0); ax <= gradTableSpan; ax++ {
			ent := uint32(q.Sqrt(q.Add(q.Mul(ax, ax), q.Mul(ay, ay))))
			for k := 0; k < 4; k++ {
				x, y := ax, ay
				if k&2 != 0 {
					x = -ax
				}
				if k&1 != 0 {
					y = -ay
				}
				ent |= uint32(fixed.Atan2Bin(y, x, fpgaBins, fpgaSigned)) << (16 + 4*k)
			}
			t[ay*gradTableSide+ax] = ent
		}
	}
	return t
}

// lookup returns the magnitude and bin of the raw differences (ix, iy),
// which must both lie within ±gradTableSpan.
func (t *gradTable) lookup(ix, iy int64) (mag int64, bin int) {
	sx, sy := ix>>63, iy>>63 // -1 when negative, else 0
	ent := t[((iy^sy)-sy)*gradTableSide+(ix^sx)-sx]
	k := sx&2 | sy&1
	return int64(ent & 0xffff), int(ent>>(16+4*k)) & 0xf
}

// Config returns the extractor's logical HoG configuration.
func (e *FPGAExtractor) Config() Config { return e.cfg }

// Format returns the fixed-point format of the datapath.
func (e *FPGAExtractor) Format() fixed.Q { return e.q }

// CellGrid computes per-cell histograms with the fixed-point datapath.
// Histogram entries are returned as float64 for interchange but every
// value is exactly representable in the Q format.
func (e *FPGAExtractor) CellGrid(img *imgproc.Image) [][][]float64 {
	var g Grid
	e.GridInto(&g, img)
	return g.Views()
}

// GridInto computes the fixed-point cell histograms of img into g,
// reusing g's backing storage (identical values to CellGrid). Safe to
// call concurrently on distinct grids.
//
// The pixel plane is quantized once into grid-owned scratch (the FPGA
// receives 8-bit pixels, modeled as Q8.8 values in [0, 1]) and the
// per-cell pass reads it with row-base offsets resolved per pixel row
// instead of a clamping closure per neighbor. The float block plane is
// prepared afterwards so DescriptorInto hits the fused path; block
// normalization stays the float model of the published design, exact
// regardless of FastMath.
func (e *FPGAExtractor) GridInto(g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	q := e.q
	g.Reset(cx, cy, e.cfg.NBins)
	if cx == 0 || cy == 0 {
		return
	}
	pix := g.fixedPlane(img.W * img.H)
	for i, v := range img.Pix {
		pix[i] = q.FromFloat(v)
	}
	e.fixedCellPass(g, pix, img.W, img.H)
	ref := Extractor{cfg: e.cfg}
	ref.PrepareBlocks(g)
}

// fixedCellPass runs the Q-format gradient/magnitude/bin datapath over
// every cell. Neighbor clamping happens at row granularity for y and
// only at the image's outer columns for x. A pixel whose raw
// differences both lie within ±gradTableSpan reads its magnitude and
// bin from the table; any other one (pixels outside [0, 1], ±Inf)
// saturates its differences and runs the arithmetic. A zero gradient
// needs no branch: it adds magnitude 0 to bin 0.
//
//pcnn:hotpath
func (e *FPGAExtractor) fixedCellPass(g *Grid, pix []int64, iw, ih int) {
	cs := e.cfg.CellSize
	cx, cy := g.CellsX, g.CellsY
	q := e.q
	nb := e.cfg.NBins
	signed := e.cfg.Signed
	tab := e.tab
	var histArr [maxFixedBins]int64
	hist := histArr[:nb]
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			for b := range hist {
				hist[b] = 0
			}
			for y := j * cs; y < (j+1)*cs; y++ {
				rowC := y * iw
				yu := y - 1
				if yu < 0 {
					yu = 0
				}
				yd := y + 1
				if yd >= ih {
					yd = ih - 1
				}
				rowU, rowD := yu*iw, yd*iw
				for x := i * cs; x < (i+1)*cs; x++ {
					xl, xr := x-1, x+1
					if xl < 0 {
						xl = 0
					}
					if xr >= iw {
						xr = iw - 1
					}
					ix := pix[rowC+xr] - pix[rowC+xl]
					iy := pix[rowU+x] - pix[rowD+x]
					var mag int64
					var bin int
					if uint64(ix+gradTableSpan) <= 2*gradTableSpan && uint64(iy+gradTableSpan) <= 2*gradTableSpan {
						mag, bin = tab.lookup(ix, iy)
					} else {
						ix, iy = q.Saturate(ix), q.Saturate(iy)
						mag = q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
						bin = fixed.Atan2Bin(iy, ix, nb, signed)
					}
					hist[bin] = q.Add(hist[bin], mag)
				}
			}
			fh := g.Hist(i, j)
			for b, v := range hist {
				fh[b] = q.ToFloat(v)
			}
		}
	}
}

// maxFixedBins bounds the on-stack histogram of the fixed-point cell
// pass; NewFPGAExtractor pins NBins to 9, well inside it.
const maxFixedBins = 32

// Descriptor computes the full fixed-point window descriptor. Block L2
// normalization is performed in floating point (the FPGA design uses a
// reciprocal-square-root LUT whose error is below the Q8.8 LSB, so the
// float model is within quantization noise of the RTL).
func (e *FPGAExtractor) Descriptor(window *imgproc.Image) ([]float64, error) {
	if window.W != e.cfg.WindowW || window.H != e.cfg.WindowH {
		return nil, fmt.Errorf("hog: window is %dx%d, want %dx%d",
			window.W, window.H, e.cfg.WindowW, e.cfg.WindowH)
	}
	ref := Extractor{cfg: e.cfg}
	return ref.DescriptorFromGrid(e.CellGrid(window))
}

// DescriptorAt mirrors Extractor.DescriptorAt for the fixed-point grid.
func (e *FPGAExtractor) DescriptorAt(grid [][][]float64, cellX, cellY int) ([]float64, error) {
	ref := Extractor{cfg: e.cfg}
	return ref.DescriptorAt(grid, cellX, cellY)
}

// DescriptorInto mirrors Extractor.DescriptorInto for the fixed-point
// grid: block assembly and normalization are the same float model, so
// delegation preserves bit-identity with DescriptorAt.
//
//pcnn:hotpath
func (e *FPGAExtractor) DescriptorInto(dst []float64, g *Grid, cellX, cellY int) ([]float64, error) {
	ref := Extractor{cfg: e.cfg}
	return ref.DescriptorInto(dst, g, cellX, cellY)
}
