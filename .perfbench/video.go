package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/hog"
)

const (
	// clipFrames is the length of every clip; each clip starts a fresh
	// Sequence, so one item in clipFrames is a full scan.
	clipFrames = 6
	// sampleEvery picks the frames compared with a per-frame Detect; it
	// is coprime with clipFrames so the sample visits every position in
	// a clip.
	sampleEvery = 11
)

// videoPipeline runs clips through detect.Sequence.NextPanned, one
// frame per item, starting a fresh Sequence at each clip. Every clip
// is rendered from its own seed just before its first frame, so a run
// sees many clips while holding one.
type videoPipeline struct {
	plain, traced  *detect.Detector
	seed           int64
	clip           []dataset.Frame
	seq, seqTraced *detect.Sequence
	refLAMR        float64
}

// prepare renders the clip of item i when i starts one.
func (p *videoPipeline) prepare(i int) error {
	if i%clipFrames != 0 {
		return nil
	}
	c := i / clipFrames
	clip, err := renderClip(dataset.NewGenerator(p.seed*1_000_003+int64(c)), c)
	p.clip = clip
	return err
}

func (p *videoPipeline) frame(i int) dataset.Frame { return p.clip[i%clipFrames] }

func (p *videoPipeline) item(i int, tr *tracer) (uint64, error) {
	d, seq := p.plain, &p.seq
	if tr != nil {
		d, seq = p.traced, &p.seqTraced
	}
	if i%clipFrames == 0 {
		*seq = d.NewSequence()
	}
	f := p.frame(i)
	errs := d.DescriptorErrors()
	tr.begin("detect.scan")
	kept := (*seq).NextPanned(f.Image, f.PanX, f.PanY)
	tr.end()
	if n := d.DescriptorErrors() - errs; n > 0 {
		return 0, fmt.Errorf("%d descriptor errors", n)
	}
	return digestDets(kept), nil
}

// verify compares a sample of frames bit for bit with Detect on the
// same frame.
func (p *videoPipeline) verify(i int, digest uint64) error {
	if i%sampleEvery != 3 {
		return nil
	}
	if want := digestDets(p.plain.Detect(p.frame(i).Image)); want != digest {
		return fmt.Errorf("frame %d of its clip differs from Detect on the same frame", i%clipFrames)
	}
	return nil
}

func (p *videoPipeline) check(r *report, _ *tracer) error {
	gen := dataset.NewGenerator(refSeed)
	var dets [][]detect.Detection
	var truths [][]dataset.Box
	for c := 0; c < 2; c++ {
		clip, err := renderClip(gen, c)
		if err != nil {
			return err
		}
		seq := p.plain.NewSequence()
		for _, f := range clip {
			// Next reuses its result slice; keep a copy.
			dets = append(dets, append([]detect.Detection(nil), seq.NextPanned(f.Image, f.PanX, f.PanY)...))
			truths = append(truths, f.Truth)
		}
	}
	checkLAMR(r, detect.LogAvgMissRate(detect.Evaluate(dets, truths, 0.5)), p.refLAMR)
	return nil
}

func (p *videoPipeline) close() {}

// renderClip renders clip c: clipFrames 640x480 frames of the walkers
// scenario for even c, of pan for odd c.
func renderClip(gen *dataset.Generator, c int) ([]dataset.Frame, error) {
	return gen.FrameSequence([]string{"walkers", "pan"}[c%2], 640, 480, clipFrames)
}

func setupVideoNApprox(seed int64, tr *tracer) (pipeline, error) {
	ext0, err := core.NewExtractor(core.ParadigmNApprox, hog.NormL2)
	if err != nil {
		return nil, err
	}
	ext := tr.traceExtractor(ext0, "napprox")
	cfg := detectConfig(scanWorkers)
	part, err := trainSVM(core.ParadigmNApprox, ext, cfg, tr)
	if err != nil {
		return nil, err
	}
	p := &videoPipeline{seed: seed, refLAMR: refLAMRVideoNApprox}
	p.plain, p.traced, err = newDetectors(ext0, ext, part.Classifier, "svm", cfg, tr)
	if err != nil {
		return nil, err
	}
	return p, nil
}
