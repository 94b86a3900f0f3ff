package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

func TestTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(ramp(tailMin)); ok {
		t.Fatalf("tail of %d samples: want none", tailMin)
	}
	for _, tc := range []struct {
		n         int
		value     float64
		percentil float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pct, ok := tail(ramp(tc.n))
		if !ok || v != tc.value || math.Abs(pct-tc.percentil) > 1e-9 {
			t.Errorf("tail(n=%d) = %v p%v %v, want %v p%v", tc.n, v, pct, ok, tc.value, tc.percentil)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMin {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailMin)
		}
	}
}

// TestCheckLAMR fails a LAMR that differs from its record, and a NaN
// LAMR, which a scan without candidates gives.
func TestCheckLAMR(t *testing.T) {
	for _, tc := range []struct {
		got    float64
		failed int
	}{{0.25, 0}, {0.25 + 1e-6, 1}, {math.NaN(), 1}} {
		r := &report{}
		checkLAMR(r, tc.got, 0.25)
		if r.failed != tc.failed || r.attempted != 1 {
			t.Errorf("checkLAMR(%v, 0.25): %d of %d failed, want %d of 1", tc.got, r.failed, r.attempted, tc.failed)
		}
	}
}

func TestUnionWithin(t *testing.T) {
	for _, tc := range []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[]interval{{10, 40}, {20, 50}, {60, 70}}, 0, 100, 50},
		{[]interval{{20, 50}, {10, 40}, {15, 30}}, 0, 100, 40}, // nested and unsorted
		{[]interval{{-10, 20}, {90, 120}}, 0, 100, 30},         // clipped to [lo, hi)
		{[]interval{{0, 100}, {10, 20}}, 0, 100, 100},
	} {
		if got := unionWithin(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("unionWithin(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

// TestSelfTimeOverlappingChildren checks that children recorded by two
// concurrent workers count once in their parent's self time, and that
// per-window children are folded with their count and busy time.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	tr := newTracer()
	tr.setItem(0)
	tr.begin("item")
	tr.begin("detect.scan")
	tr.stack[1].Start = 0
	parent := tr.parent.Load()
	for _, c := range []span{
		{Name: "hog.grid", Start: 0, End: 10},
		{Name: "hog.descriptor", Start: 10, End: 40}, // worker 1
		{Name: "hog.descriptor", Start: 20, End: 50}, // worker 2
		{Name: "svm.score", Start: 60, End: 70},
	} {
		c.Parent, c.Item = parent, 0
		tr.leaves = append(tr.leaves, c)
	}
	tr.end()
	tr.end()
	var item, scan, desc *span
	for i := range tr.spans {
		switch tr.spans[i].Name {
		case "item":
			item = &tr.spans[i]
		case "detect.scan":
			scan = &tr.spans[i]
		case "hog.descriptor":
			desc = &tr.spans[i]
		}
	}
	if item == nil || scan == nil || desc == nil || len(tr.spans) != 5 || len(tr.leaves) != 0 {
		t.Fatalf("filed spans %+v, unfiled %+v", tr.spans, tr.leaves)
	}
	if scan.ID != parent || scan.Parent != item.ID || item.Parent != 0 {
		t.Errorf("span tree: item %+v, scan %+v (opened as %d)", *item, *scan, parent)
	}
	if want := scan.End - 60; scan.SelfNS != want {
		t.Errorf("self time %d, want duration %d minus the 60ns union", scan.SelfNS, want)
	}
	if desc.Calls != 2 || desc.BusyNS != 60 || desc.Start != 10 || desc.End != 50 || desc.Parent != scan.ID {
		t.Errorf("folded descriptor span %+v", *desc)
	}
	_, measured, windows := summarize(tr, 1)
	if windows[0] != 2 || measured["detect.scan"].self != scan.SelfNS {
		t.Errorf("summary: windows %v, scan %+v", windows, measured["detect.scan"])
	}
}

// TestDecoratorsLeaveOutputsUnchanged checks that detections, their
// scores, descriptors and LAMR are the same through the tracing
// decorators as without them.
func TestDecoratorsLeaveOutputsUnchanged(t *testing.T) {
	ext0, err := core.NewExtractor(core.ParadigmFPGA, hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ext := tr.traceExtractor(ext0, "hog")
	ts := dataset.NewGenerator(3).TrainSet(20, 40)
	cfg := core.DefaultSVMTrainConfig()
	cfg.HardNegativeRounds = 0
	part, err := core.TrainSVMPartition(core.ParadigmFPGA, ext0, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced, err := newDetectors(ext0, ext, part.Classifier, "svm", detectConfig(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	imgs, truths := sceneSet(dataset.NewGenerator(4), 3, 256, 192, 130, 180, func(k int) int { return k % 2 })
	var got, want [][]detect.Detection
	for i, img := range imgs {
		tr.setItem(i)
		want = append(want, plain.Detect(img))
		got = append(got, traced.Detect(img))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced detections differ:\n got %v\nwant %v", got, want)
	}
	lamr := func(d [][]detect.Detection) float64 {
		return detect.LogAvgMissRate(detect.Evaluate(d, truths, 0.5))
	}
	if a, b := lamr(got), lamr(want); a != b {
		t.Errorf("LAMR %v through the decorators, %v without", a, b)
	}
	d0, err0 := ext0.Descriptor(ts.Positives[0])
	d1, err1 := ext.Descriptor(ts.Positives[0])
	if err0 != nil || err1 != nil || !reflect.DeepEqual(d0, d1) {
		t.Errorf("Descriptor through the decorator differs (errors %v, %v)", err0, err1)
	}
	if s0, s1 := part.Classifier.Score(d0), tr.traceScorer(part.Classifier, "svm").Score(d0); s0 != s1 {
		t.Errorf("score %v through the decorator, %v without", s1, s0)
	}
	if tr.candidates.Load() == 0 || len(tr.leaves) == 0 {
		t.Errorf("decorators recorded nothing: %d candidates, %d spans", tr.candidates.Load(), len(tr.leaves))
	}
	var g hog.Grid
	ext.GridInto(&g, imgproc.New(64, 128))
	if _, err := ext.DescriptorInto(nil, &g, 0, 0); err != nil {
		t.Errorf("DescriptorInto through the decorator: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics and workloads
// this program prints in agreement.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program prints %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if g := spec.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q %q in the program", i, g, w.name, w.why)
		}
	}
}

// TestTimedFor ends timed loops only on cycle boundaries, after both
// the time and minItems, and always at maxLoopSeconds.
func TestTimedFor(t *testing.T) {
	done := timedFor(10, 6)
	for _, tc := range []struct {
		n    int
		el   float64
		want bool
	}{
		{6, 11, false},  // fewer than minItems
		{12, 11, true},  // a whole cycle after minItems and the time
		{13, 11, false}, // mid-cycle
		{18, 9, false},  // before the time
		{1, maxLoopSeconds, true},
	} {
		if got := done(tc.n, tc.el); got != tc.want {
			t.Errorf("done(%d, %v) = %v, want %v", tc.n, tc.el, got, tc.want)
		}
	}
}
