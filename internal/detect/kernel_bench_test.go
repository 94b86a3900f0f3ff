package detect

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/napprox"
	"repro/internal/parrot"
)

// benchExtractors builds one extractor per paradigm so the kernel
// microbenchmarks cover every GridInto/DescriptorInto implementation:
// the float reference HoG, the fixed-point FPGA model, the
// spiking-quantized NApprox, and the parrot network (untrained — the
// kernel cost does not depend on the weights), both on raw values
// ("parrot", window 0) and at the 8-spike input coding of the Fig 5
// scans ("parrot-8spike").
func benchExtractors(b *testing.B) map[string]Extractor {
	b.Helper()
	ref, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		b.Fatal(err)
	}
	fpga, err := hog.NewFPGAExtractor(64, 128)
	if err != nil {
		b.Fatal(err)
	}
	na, err := napprox.New(napprox.TrueNorthConfig(), hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := eedn.NewParrotNet(parrot.NBins, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	pr, err := parrot.NewExtractor(net, 0, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	pr8, err := parrot.NewExtractor(net, 8, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]Extractor{"hog": ref, "fpga": fpga, "napprox": na, "parrot": pr, "parrot-8spike": pr8}
}

// benchParadigms lists benchExtractors' keys in benchmark order.
var benchParadigms = []string{"hog", "fpga", "napprox", "parrot", "parrot-8spike"}

// BenchmarkGridInto measures the per-level cell-grid kernels of every
// extractor paradigm on a 160x160 image (the ScanInner level size).
func BenchmarkGridInto(b *testing.B) {
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, name := range benchParadigms {
		ext := benchExtractors(b)[name]
		b.Run(name, func(b *testing.B) {
			var g hog.Grid
			ext.GridInto(&g, img) // warm the grid planes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext.GridInto(&g, img)
			}
		})
	}
}

// BenchmarkDescriptorInto measures the fused normalize+descriptor pass
// over a warm prepared grid, sweeping every window position of the
// level like the scan inner loop does.
func BenchmarkDescriptorInto(b *testing.B) {
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, name := range benchParadigms {
		ext := benchExtractors(b)[name]
		b.Run(name, func(b *testing.B) {
			var g hog.Grid
			ext.GridInto(&g, img)
			var cellsX, cellsY int
			switch e := ext.(type) {
			case *hog.Extractor:
				cellsX, cellsY = e.Config().CellsX(), e.Config().CellsY()
			case *hog.FPGAExtractor:
				cellsX, cellsY = e.Config().CellsX(), e.Config().CellsY()
			default:
				cellsX, cellsY = 8, 16 // 64x128 window in 8px cells
			}
			var desc []float64
			var err error
			desc, err = ext.DescriptorInto(desc[:0], &g, 0, 0) // warm
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for gy := 0; gy+cellsY <= g.CellsY; gy++ {
					for gx := 0; gx+cellsX <= g.CellsX; gx++ {
						desc, err = ext.DescriptorInto(desc[:0], &g, gx, gy)
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
