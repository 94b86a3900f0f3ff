package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/truenorth"
)

const (
	// minHWCorrelation is the paper's hardware/software agreement.
	minHWCorrelation = 0.995
	cellSize         = 8
	cellSide         = cellSize + 2 // a cell plus its one-pixel border
	// patchCells is the side of an item's patch of adjacent cells. One
	// cell runs in ~3 ms, the scale of a scheduler time slice, so a
	// per-cell tail would time preemptions; a 4x4 patch (16 corelet
	// runs) makes the tail the simulator's.
	patchCells = 4
	// The pool draws chipPatches patches from chipScenes 320x240
	// scenes; scene content sets much of a cell's cost, so many small
	// scenes keep runs of different seeds alike.
	chipScenes  = 48
	chipPatches = 480
	chipRef     = 4 // patches in the reference set
)

// chipPipeline runs the NApprox cell corelet on the simulator (default
// engine, one shard), one patch of cells per item.
type chipPipeline struct {
	mod     *napprox.CellModule
	sim     *truenorth.Simulator
	sw      *napprox.Extractor // the software model the chip must match
	patches [][]*imgproc.Image
	hists   [][]float64 // the last item's chip histograms
	// hw and ref pair the chip and software histograms of plain items.
	hw, ref []float64
	// counts sums the simulator counts of traced items.
	counts truenorth.EnergyStats
}

// cutPatches cuts n patches of patchCells x patchCells adjacent cells at
// random positions of 320x240 scenes, patch k from scene k mod
// chipScenes so that every stretch of the pool mixes the scenes.
func cutPatches(seed int64, n int) [][]*imgproc.Image {
	gen := dataset.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed))
	var scenes []*imgproc.Image
	for k := 0; k < chipScenes; k++ {
		scenes = append(scenes, gen.Scene(320, 240, 1, 130, 230).Image)
	}
	span := patchCells*cellSize + 2
	patches := make([][]*imgproc.Image, n)
	for k := range patches {
		img := scenes[k%chipScenes]
		x0, y0 := rng.Intn(img.W-span), rng.Intn(img.H-span)
		for c := 0; c < patchCells*patchCells; c++ {
			x, y := x0+cellSize*(c%patchCells), y0+cellSize*(c/patchCells)
			patches[k] = append(patches[k], img.SubImage(x, y, cellSide, cellSide))
		}
	}
	return patches
}

func setupChipNApprox(seed int64, _ *tracer) (pipeline, error) {
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return nil, err
	}
	swCfg := napprox.TrueNorthConfig()
	swCfg.Mode = napprox.VoteRace
	sw, err := napprox.New(swCfg, hog.NormNone)
	if err != nil {
		return nil, err
	}
	sim, err := truenorth.NewSimulator(mod.Model, 1)
	if err != nil {
		return nil, err
	}
	return &chipPipeline{mod: mod, sim: sim, sw: sw, patches: cutPatches(seed, chipPatches)}, nil
}

func (p *chipPipeline) prepare(int) error { return nil }

func (p *chipPipeline) item(i int, tr *tracer) (uint64, error) {
	p.hists = p.hists[:0]
	digest := uint64(fnvOffset)
	for _, cell := range p.patches[i%len(p.patches)] {
		tr.begin("napprox.extract")
		h, err := p.mod.Extract(p.sim, cell)
		tr.end()
		if err != nil {
			return 0, err
		}
		e := truenorth.CollectEnergy(p.sim)
		if tr != nil {
			p.counts = addCounts(p.counts, e)
		}
		p.hists = append(p.hists, h)
		digest = mix(digest, digestCell(h, e))
	}
	return digest, nil
}

// verify pairs the chip histograms with the software model's for the
// hardware/software correlation.
func (p *chipPipeline) verify(i int, _ uint64) error {
	for k, cell := range p.patches[i%len(p.patches)] {
		h, err := p.sw.CellHistogram(cell)
		if err != nil {
			return err
		}
		p.hw = append(p.hw, p.hists[k]...)
		p.ref = append(p.ref, h...)
	}
	return nil
}

func (p *chipPipeline) check(r *report, tr *tracer) error {
	r.attempted++
	corr, err := pearson(p.hw, p.ref)
	if err != nil {
		r.fail("hw_correlation: %v", err)
	} else if corr < minHWCorrelation {
		r.fail("hw_correlation %.6f below %.3f", corr, minHWCorrelation)
	}
	r.addMetric("hw_correlation", corr, "r", fmt.Sprintf("chip vs software model over %d cells; at least %.3f required", len(p.hw)/max(p.mod.NBins, 1), minHWCorrelation))

	// The exact simulator counts and histograms of a fixed cell set.
	var ref truenorth.EnergyStats
	digest := uint64(fnvOffset)
	cells := 0
	for _, patch := range cutPatches(refSeed, chipRef) {
		for _, c := range patch {
			h, err := p.mod.Extract(p.sim, c)
			if err != nil {
				return fmt.Errorf("reference cells: %w", err)
			}
			e := truenorth.CollectEnergy(p.sim)
			ref = addCounts(ref, e)
			digest = mix(digest, digestCell(h, e))
			cells++
		}
	}
	r.attempted++
	if ref != refChipCounts || digest != refChipDigest {
		r.fail("reference cells: counts %+v digest %#x differ from the recorded %+v %#x", ref, digest, refChipCounts, refChipDigest)
	}
	if tr == nil {
		return nil
	}
	n := float64(cells)
	r.metrics["truenorth.ticks_per_cell"] = float64(ref.Ticks) / n
	r.metrics["truenorth.synaptic_events_per_cell"] = float64(ref.SynapticEvents) / n
	r.metrics["truenorth.spikes_routed_per_cell"] = float64(ref.SpikesRouted) / n
	r.metrics["truenorth.neuron_fires_per_cell"] = float64(ref.NeuronFires) / n
	var busy int64
	for _, s := range tr.spans {
		if s.Item >= 0 && s.Name == "napprox.extract" {
			busy += s.busy()
		}
	}
	if p.counts.Ticks > 0 && p.counts.SynapticEvents > 0 {
		r.metrics["truenorth.ns_per_tick"] = float64(busy) / float64(p.counts.Ticks)
		r.metrics["truenorth.ns_per_synaptic_event"] = float64(busy) / float64(p.counts.SynapticEvents)
	}
	return nil
}

func (p *chipPipeline) close() { p.sim.Close() }

func addCounts(a, b truenorth.EnergyStats) truenorth.EnergyStats {
	return truenorth.EnergyStats{
		Ticks:          a.Ticks + b.Ticks,
		SynapticEvents: a.SynapticEvents + b.SynapticEvents,
		NeuronFires:    a.NeuronFires + b.NeuronFires,
		SpikesRouted:   a.SpikesRouted + b.SpikesRouted,
	}
}
