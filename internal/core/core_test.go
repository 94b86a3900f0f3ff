package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/parrot"
)

func TestParadigmStrings(t *testing.T) {
	for p, want := range map[Paradigm]string{
		ParadigmFPGA: "fpga-hog", ParadigmNApproxFP: "napprox-fp",
		ParadigmNApprox: "napprox", ParadigmParrot: "parrot",
		ParadigmAbsorbed: "absorbed",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if Paradigm(99).String() == "" {
		t.Error("unknown paradigm should print")
	}
}

func TestNewExtractorParadigms(t *testing.T) {
	if _, err := NewExtractor(ParadigmFPGA, hog.NormL2); err != nil {
		t.Errorf("fpga: %v", err)
	}
	if _, err := NewExtractor(ParadigmFPGA, hog.NormNone); err == nil {
		t.Error("fpga without norm should be rejected")
	}
	if _, err := NewExtractor(ParadigmNApproxFP, hog.NormL2); err != nil {
		t.Error("napprox-fp should build")
	}
	if _, err := NewExtractor(ParadigmNApprox, hog.NormNone); err != nil {
		t.Error("napprox should build")
	}
	if _, err := NewExtractor(ParadigmParrot, hog.NormNone); err == nil {
		t.Error("parrot via NewExtractor should be rejected")
	}
	if _, err := NewExtractor(ParadigmAbsorbed, hog.NormNone); err == nil {
		t.Error("absorbed extractor should be rejected")
	}
	if _, err := NewExtractor(Paradigm(42), hog.NormNone); err == nil {
		t.Error("unknown paradigm should error")
	}
}

func TestDescriptorSet(t *testing.T) {
	e, err := NewExtractor(ParadigmNApprox, hog.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(1)
	ds, err := DescriptorSet(e, []*imgproc.Image{gen.Positive(), gen.Negative()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || len(ds[0]) != 7560 {
		t.Errorf("descriptor set %d x %d", len(ds), len(ds[0]))
	}
}

func TestTrainSVMPartitionDetects(t *testing.T) {
	e, err := NewExtractor(ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(21)
	ts := gen.TrainSet(50, 100)
	cfg := DefaultSVMTrainConfig()
	cfg.HardNegativeRounds = 1
	cfg.MiningScenes = 2
	part, err := TrainSVMPartition(ParadigmNApproxFP, e, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := part.Detector(detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scene := dataset.NewGenerator(31).Scene(288, 224, 1, 140, 180)
	if len(scene.Truth) == 0 {
		t.Skip("no person placed")
	}
	dets := det.Detect(scene.Image)
	if len(dets) == 0 {
		t.Fatal("partition detected nothing")
	}
	found := false
	for _, d := range dets[:minInt(3, len(dets))] {
		if d.Box.IoU(scene.Truth[0]) >= 0.3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no top detection near truth %+v: %v", scene.Truth[0], dets[:minInt(3, len(dets))])
	}
}

func TestTrainEednPartition(t *testing.T) {
	e, err := NewExtractor(ParadigmNApprox, hog.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(41)
	ts := gen.TrainSet(40, 80)
	cfg := DefaultEednTrainConfig()
	cfg.Train.Epochs = 25
	cfg.Width = 128
	part, err := TrainEednPartition(ParadigmNApprox, e, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part.ClassifierCores <= 0 {
		t.Error("classifier core estimate missing")
	}
	// The Eedn head should separate held-out windows above chance.
	val := dataset.NewGenerator(42).TrainSet(30, 30)
	correct := 0
	for _, w := range val.Positives {
		d, err := e.Descriptor(w)
		if err != nil {
			t.Fatal(err)
		}
		if part.Classifier.Score(d) >= 0 {
			correct++
		}
	}
	for _, w := range val.Negatives {
		d, err := e.Descriptor(w)
		if err != nil {
			t.Fatal(err)
		}
		if part.Classifier.Score(d) < 0 {
			correct++
		}
	}
	acc := float64(correct) / 60
	t.Logf("eedn partition val accuracy: %.3f", acc)
	if acc < 0.7 {
		t.Errorf("eedn partition accuracy = %v, want >= 0.7", acc)
	}
}

func TestEednClassifierScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := eedn.NewClassifierNet(4, 8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := &EednClassifier{Net: net, Scale: 64}
	// Must not panic and must clamp scaled inputs.
	_ = c.Score([]float64{0, 64, 128, 32})
	c2 := &EednClassifier{Net: net, Scale: 1}
	_ = c2.Score([]float64{0, 1, 0.5, 0.2})
}

// TestEednClassifierScoreZeroAllocs pins the scorer's steady state at
// the Fig 5 head's shape: scratch comes from the network's pool and
// the rescaled descriptor is staged in it.
func TestEednClassifierScoreZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(2))
	net, err := eedn.NewClassifierNet(7560, 256, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := &EednClassifier{Net: net, Scale: 32}
	x := make([]float64, 7560)
	for i := range x {
		x[i] = rng.Float64() * 40
	}
	want := c.Score(x)
	if allocs := testing.AllocsPerRun(10, func() {
		if got := c.Score(x); got != want {
			t.Fatalf("score %v, then %v", want, got)
		}
	}); allocs != 0 {
		t.Errorf("Score allocs/op = %v, want 0", allocs)
	}
}

// TestConcurrentParrotGridAndScore shares one network between parrot
// GridInto and EednClassifier.Score calls on concurrent goroutines,
// as band workers do, and checks every result against a serial run.
// Run it under -race to check the pooled scratch.
func TestConcurrentParrotGridAndScore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := eedn.NewParrotNet(parrot.NBins, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := parrot.NewExtractor(net, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	clf := &EednClassifier{Net: net, Scale: 2}
	const jobs = 8
	imgs := make([]*imgproc.Image, jobs)
	inputs := make([][]float64, jobs)
	wantGrid := make([][]float64, jobs)
	wantScore := make([]float64, jobs)
	for k := range imgs {
		imgs[k] = imgproc.New(48, 32)
		for i := range imgs[k].Pix {
			imgs[k].Pix[i] = rng.Float64()
		}
		inputs[k] = make([]float64, parrot.CellSide*parrot.CellSide)
		for i := range inputs[k] {
			inputs[k][i] = rng.Float64() * 2
		}
		var g hog.Grid
		ex.GridInto(&g, imgs[k])
		wantGrid[k] = append([]float64(nil), g.Data...)
		wantScore[k] = clf.Score(inputs[k])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var g hog.Grid
			for rep := 0; rep < 3; rep++ {
				for k := w % 2; k < jobs; k += 2 {
					ex.GridInto(&g, imgs[k])
					if !reflect.DeepEqual(g.Data, wantGrid[k]) {
						t.Errorf("worker %d: grid %d differs", w, k)
					}
					if got := clf.Score(inputs[k]); got != wantScore[k] {
						t.Errorf("worker %d: score %d is %v, want %v", w, k, got, wantScore[k])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAbsorbedBlindDecisions reproduces Sec. 5.1: with the training
// budget that suffices for the partitioned approaches, the monolithic
// network fails to learn a useful response (blind or near-chance
// decisions).
func TestAbsorbedBlindDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("long monolithic training")
	}
	gen := dataset.NewGenerator(61)
	ts := gen.TrainSet(40, 40)
	val := dataset.NewGenerator(62).TrainSet(25, 25)
	cfg := eedn.DefaultTrainConfig()
	cfg.Epochs = 3 // the paper's point: same budget, no convergence
	cfg.LR = 0.02
	evalWindows := append(append([]*imgproc.Image{}, val.Positives...), val.Negatives...)
	labels := make([]bool, len(evalWindows))
	for i := range val.Positives {
		labels[i] = true
	}
	res, err := TrainAbsorbed(ts, evalWindows, labels, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("absorbed: loss=%.3f positiveRate=%.3f accuracy=%.3f blind=%v",
		res.TrainLoss, res.PositiveRate, res.Accuracy, res.Blind)
	if !res.Blind && res.Accuracy > 0.7 {
		t.Errorf("absorbed unexpectedly converged: %+v", res)
	}
}

func TestTrainAbsorbedEmptySet(t *testing.T) {
	if _, err := TrainAbsorbed(dataset.TrainSet{}, nil, nil, eedn.DefaultTrainConfig(), 1); err == nil {
		t.Error("empty train set should error")
	}
}

func TestWrapParrot(t *testing.T) {
	opt := parrot.DefaultTrainOptions()
	opt.Samples = 400
	opt.Hidden = 64
	opt.Train.Epochs = 5
	ex, _, err := parrot.Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := WrapParrot(ex)
	gen := dataset.NewGenerator(3)
	d, err := w.Descriptor(gen.Positive())
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7560 {
		t.Errorf("parrot descriptor len %d", len(d))
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
