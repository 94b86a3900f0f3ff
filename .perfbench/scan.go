package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/parrot"
)

const (
	// trainSeed seeds every model's training data, so a model and its
	// outputs on the reference sets do not depend on --seed.
	trainSeed = 17
	// refSeed seeds the fixed reference sets of the output checks.
	refSeed = 1017
	// lamrTolerance allows for nothing but float formatting: the
	// pipelines are deterministic, so LAMR must match its record.
	lamrTolerance = 1e-9
)

// scanWorkers is the detectors' band worker count. One worker scans on
// the caller's thread, so an item's CPU time stays its latency less
// the time the host gave its core to other work; two workers' CPU
// times would add up (see cpuSeconds).
const scanWorkers = 1

// detectConfig is the paper's scan protocol with the curve
// experiments' threshold, which keeps sub-zero candidates so the
// miss-rate/FPPI curve spans its whole FPPI range.
func detectConfig(workers int) detect.Config {
	c := detect.DefaultConfig()
	c.Threshold = -0.6
	c.Workers = workers
	return c
}

// newDetectors returns the plain detector and, with a tracer, the same
// partition behind the tracing decorators.
func newDetectors(ext0, ext core.Extractor, s detect.Scorer, scorerLayer string, cfg detect.Config, tr *tracer) (plain, traced *detect.Detector, err error) {
	plain, err = detect.NewDetector(ext0, s, cfg)
	if err != nil || tr == nil {
		return plain, nil, err
	}
	tr.threshold = cfg.Threshold
	traced, err = detect.NewDetector(ext, tr.traceScorer(s, scorerLayer), cfg)
	return plain, traced, err
}

// trainSVM co-trains an SVM head with hard-negative mining on the fixed
// training set, as in the Fig 4 protocol at a small size.
func trainSVM(p core.Paradigm, ext core.Extractor, det detect.Config, tr *tracer) (*core.Partition, error) {
	ts := dataset.NewGenerator(trainSeed).TrainSet(60, 120)
	cfg := core.DefaultSVMTrainConfig()
	cfg.MiningScenes = 2
	cfg.Detect = det
	tr.begin("core.train_svm_partition")
	part, err := core.TrainSVMPartition(p, ext, ts, cfg)
	tr.end()
	return part, err
}

// stillScenes is the size of still-fpga's scene pool.
const stillScenes = 8

// scanPipeline runs Detect (as DetectRaw then NMS) over a pool of
// scenes, one scene per item.
type scanPipeline struct {
	plain, traced *detect.Detector
	scenes        []*imgproc.Image
	// refSet builds the fixed reference set the LAMR check scans.
	refSet  func() ([]*imgproc.Image, [][]dataset.Box)
	refLAMR float64
	trainS  float64
}

func (p *scanPipeline) item(i int, tr *tracer) (uint64, error) {
	d := p.plain
	if tr != nil {
		d = p.traced
	}
	errs := d.DescriptorErrors()
	tr.begin("detect.scan")
	raw := d.DetectRaw(p.scenes[i%len(p.scenes)])
	tr.end()
	tr.begin("detect.nms")
	kept := detect.NMS(raw, d.Config.NMSEpsilon)
	tr.end()
	if n := d.DescriptorErrors() - errs; n > 0 {
		return 0, fmt.Errorf("%d descriptor errors", n)
	}
	return digestDets(kept), nil
}

func (p *scanPipeline) prepare(int) error { return nil }

func (p *scanPipeline) verify(int, uint64) error { return nil }

func (p *scanPipeline) check(r *report, _ *tracer) error {
	imgs, truths := p.refSet()
	dets := make([][]detect.Detection, len(imgs))
	for i, img := range imgs {
		dets[i] = p.plain.Detect(img)
	}
	checkLAMR(r, detect.LogAvgMissRate(detect.Evaluate(dets, truths, 0.5)), p.refLAMR)
	return nil
}

func (p *scanPipeline) trainSeconds() float64 { return p.trainS }

func (p *scanPipeline) close() {}

// checkLAMR compares a reference-set LAMR with its recorded value.
func checkLAMR(r *report, got, want float64) {
	r.addMetric("lamr", got, "share", fmt.Sprintf("fixed reference set; recorded %.9f", want))
	r.attempted++
	if !(math.Abs(got-want) <= lamrTolerance) { // NaN fails too
		r.fail("lamr %.17g differs from the recorded %.17g", got, want)
	}
}

// sceneSet generates n scenes of w x h with persons of heights
// minH..maxH, the k-th holding persons(k) of them.
func sceneSet(gen *dataset.Generator, n, w, h, minH, maxH int, persons func(k int) int) ([]*imgproc.Image, [][]dataset.Box) {
	var imgs []*imgproc.Image
	var truths [][]dataset.Box
	for k := 0; k < n; k++ {
		s := gen.Scene(w, h, persons(k), minH, maxH)
		imgs = append(imgs, s.Image)
		truths = append(truths, s.Truth)
	}
	return imgs, truths
}

func setupStillFPGA(seed int64, tr *tracer) (pipeline, error) {
	ext0, err := core.NewExtractor(core.ParadigmFPGA, hog.NormL2)
	if err != nil {
		return nil, err
	}
	ext := tr.traceExtractor(ext0, "hog")
	cfg := detectConfig(scanWorkers)
	part, err := trainSVM(core.ParadigmFPGA, ext, cfg, tr)
	if err != nil {
		return nil, err
	}
	p := &scanPipeline{refLAMR: refLAMRStillFPGA}
	p.plain, p.traced, err = newDetectors(ext0, ext, part.Classifier, "svm", cfg, tr)
	if err != nil {
		return nil, err
	}
	p.scenes, _ = sceneSet(dataset.NewGenerator(seed), stillScenes, 640, 480, 130, 380, func(k int) int { return k % 4 })
	p.refSet = func() ([]*imgproc.Image, [][]dataset.Box) {
		gen := dataset.NewGenerator(refSeed)
		imgs, truths := sceneSet(gen, 10, 480, 360, 90, 300, func(int) int { return 3 })
		for k := 0; k < 4; k++ {
			imgs = append(imgs, gen.NegativeImage(480, 360))
			truths = append(truths, nil)
		}
		return imgs, truths
	}
	return p, nil
}

// Sizes of the cotrain-parrot workload. The networks have the shipped
// widths (parrot.DefaultTrainOptions' 512 hidden, the width-256 head of
// core.DefaultEednTrainConfig), as in the Fig 5 runs of
// experiments.Small; only the training data, the epochs and the scenes
// shrink, to fit set-up and scans in a run. The head trains on as many
// negatives as positives: with twice as many, this few windows left
// every scene score below the threshold. Eedn scoring takes 29% of a
// 128x152 scan, as of a 128x160 one, in two thirds of its time; larger
// scenes raise that share (about 54% at Fig 5's 288x224, see
// README.md) but take too long for a run to hold 11 of them.
const (
	parrotSamples, parrotEpochs = 500, 4
	parrotWindow                = 8
	eednEpochs                  = 14
	eednTrainWindows            = 2
	cotrainW, cotrainH          = 128, 152
	cotrainMinH, cotrainMaxH    = 130, 145
	cotrainRefScenes            = 3
)

func setupCotrainParrot(seed int64, tr *tracer) (pipeline, error) {
	c0 := cpuSeconds()
	opt := parrot.DefaultTrainOptions()
	opt.Samples, opt.Train.Epochs, opt.Seed = parrotSamples, parrotEpochs, trainSeed
	opt.Train.Verbose = tr.epochs("parrot.epoch")
	tr.begin("parrot.train")
	pex, _, err := parrot.Train(opt)
	tr.end()
	if err != nil {
		return nil, err
	}
	win, err := parrot.NewExtractor(pex.Net, parrotWindow, false, nil)
	if err != nil {
		return nil, err
	}
	ext0 := core.WrapParrot(win)
	ext := tr.traceExtractor(ext0, "parrot")
	ecfg := core.DefaultEednTrainConfig()
	ecfg.Train.Epochs = eednEpochs
	ecfg.Train.Verbose = tr.epochs("eedn.epoch")
	ts := dataset.NewGenerator(trainSeed).TrainSet(eednTrainWindows, eednTrainWindows)
	tr.begin("core.train_eedn_partition")
	part, err := core.TrainEednPartition(core.ParadigmParrot, ext, ts, ecfg)
	tr.end()
	if err != nil {
		return nil, err
	}
	p := &scanPipeline{refLAMR: refLAMRCotrainParrot, trainS: cpuSeconds() - c0}
	p.plain, p.traced, err = newDetectors(ext0, ext, part.Classifier, "eedn", detectConfig(scanWorkers), tr)
	if err != nil {
		return nil, err
	}
	p.scenes, _ = sceneSet(dataset.NewGenerator(seed), 8, cotrainW, cotrainH, cotrainMinH, cotrainMaxH, func(k int) int { return k % 2 })
	p.refSet = func() ([]*imgproc.Image, [][]dataset.Box) {
		return sceneSet(dataset.NewGenerator(refSeed), cotrainRefScenes, cotrainW, cotrainH, cotrainMinH, cotrainMaxH, func(k int) int { return min(1, k%3) })
	}
	return p, nil
}
