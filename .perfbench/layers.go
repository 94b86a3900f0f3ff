package main

import (
	"strings"
)

// perLayer are the metrics every workload reports with --trace 1. A
// layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"eedn.score_ms", "ms", "lower"},
	{"eedn.score_us_per_call", "us", "lower"},
	{"eedn.epoch_ms", "ms", "lower"},
	{"eedn.train_s", "s", "lower"},
	{"parrot.epoch_ms", "ms", "lower"},
	{"parrot.train_s", "s", "lower"},
	{"core.descriptor_s", "s", "lower"},
	{"parrot.grid_ms", "ms", "lower"},
	{"hog.grid_ms", "ms", "lower"},
	{"hog.descriptor_ms", "ms", "lower"},
	{"svm.score_ms", "ms", "lower"},
	{"napprox.grid_ms", "ms", "lower"},
	{"napprox.grid_px_per_item", "px", "lower"},
	{"napprox.descriptor_ms", "ms", "lower"},
	{"detect.scan_ms", "ms", "lower"},
	{"detect.self_ms", "ms", "lower"},
	{"detect.nms_ms", "ms", "lower"},
	{"detect.windows_per_item", "count", "lower"},
	{"detect.candidates_per_item", "count", "lower"},
	{"detect.busy_share", "share", "higher"},
	{"detect.reuse_share", "share", "higher"},
	{"napprox.extract_us", "us", "lower"},
	{"truenorth.ns_per_tick", "ns", "lower"},
	{"truenorth.ns_per_synaptic_event", "ns", "lower"},
	{"truenorth.ticks_per_cell", "count", "lower"},
	{"truenorth.synaptic_events_per_cell", "count", "lower"},
	{"truenorth.spikes_routed_per_cell", "count", "lower"},
	{"truenorth.neuron_fires_per_cell", "count", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// totals sums the filed spans of one name.
type totals struct {
	busy, calls, px, self int64
	durs                  []int64 // per span, in recording order
}

// summarize groups the tracer's spans by name, separately for set-up
// spans and for measured items, and counts windows (descriptor calls)
// per item.
func summarize(t *tracer, items int) (setup, measured map[string]*totals, windows []int64) {
	setup, measured = map[string]*totals{}, map[string]*totals{}
	windows = make([]int64, items)
	for _, s := range t.spans {
		m := measured
		if s.Item < 0 {
			m = setup
		}
		a := m[s.Name]
		if a == nil {
			a = &totals{}
			m[s.Name] = a
		}
		a.busy += s.busy()
		a.calls += s.calls()
		a.px += s.Px
		a.self += s.SelfNS
		a.durs = append(a.durs, s.End-s.Start)
		if s.Item >= 0 && int(s.Item) < items && strings.HasSuffix(s.Name, ".descriptor") {
			windows[s.Item] += s.calls()
		}
	}
	return setup, measured, windows
}

// layerMetrics fills r.metrics with the per-layer metrics derived from
// the spans of a traced run of n items. The simulator counts come from
// the chip pipeline's check; a metric left unset reads 0.
func layerMetrics(r *report, t *tracer, n int) {
	setup, measured, windows := summarize(t, n)
	get := func(m map[string]*totals, name string) *totals {
		if a := m[name]; a != nil {
			return a
		}
		return &totals{}
	}
	perItemMS := func(name string) float64 { return float64(get(measured, name).busy) / 1e6 / float64(n) }
	perCallUS := func(name string) float64 {
		a := get(measured, name)
		if a.calls == 0 {
			return 0
		}
		return float64(a.busy) / 1e3 / float64(a.calls)
	}
	epochMS := func(name string) float64 {
		var ds []float64
		for _, d := range get(setup, name).durs {
			ds = append(ds, float64(d)/1e6)
		}
		return median(ds)
	}
	m := r.metrics
	m["eedn.score_ms"] = perItemMS("eedn.score")
	m["eedn.score_us_per_call"] = perCallUS("eedn.score")
	m["eedn.epoch_ms"] = epochMS("eedn.epoch")
	m["eedn.train_s"] = float64(get(setup, "eedn.epoch").busy) / 1e9
	m["parrot.epoch_ms"] = epochMS("parrot.epoch")
	m["parrot.train_s"] = float64(get(setup, "parrot.train").busy) / 1e9
	m["core.descriptor_s"] = float64(get(setup, "core.descriptor").busy) / 1e9
	m["parrot.grid_ms"] = perItemMS("parrot.grid")
	m["hog.grid_ms"] = perItemMS("hog.grid")
	m["hog.descriptor_ms"] = perItemMS("hog.descriptor")
	m["svm.score_ms"] = perItemMS("svm.score")
	m["napprox.grid_ms"] = perItemMS("napprox.grid")
	m["napprox.grid_px_per_item"] = float64(get(measured, "napprox.grid").px) / float64(n)
	m["napprox.descriptor_ms"] = perItemMS("napprox.descriptor")
	scan := get(measured, "detect.scan")
	m["detect.scan_ms"] = perItemMS("detect.scan")
	m["detect.self_ms"] = float64(scan.self) / 1e6 / float64(n)
	m["detect.nms_ms"] = perItemMS("detect.nms")

	var win, fullScan int64
	for _, w := range windows {
		win += w
		fullScan = max(fullScan, w)
	}
	m["detect.windows_per_item"] = float64(win) / float64(n)
	m["detect.candidates_per_item"] = float64(t.candidates.Load()) / float64(n)
	var busy int64
	for _, layer := range []string{"hog", "napprox", "parrot"} {
		busy += get(measured, layer+".grid").busy + get(measured, layer+".descriptor").busy
	}
	busy += get(measured, "svm.score").busy + get(measured, "eedn.score").busy
	if scan.busy > 0 {
		m["detect.busy_share"] = float64(busy) / (scanWorkers * float64(scan.busy))
	}
	if fullScan > 0 {
		// Every workload's items share one frame size and each clip of
		// video-napprox starts with a full scan, so the largest window
		// count of an item is that of a full scan.
		m["detect.reuse_share"] = 1 - float64(win)/(float64(n)*float64(fullScan))
	}
	m["napprox.extract_us"] = perCallUS("napprox.extract")
	m["runtime.gc_cpu_share"] = r.gcShare
	m["trace.overhead_share"] = r.overhead
}
