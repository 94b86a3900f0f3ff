// Command perfbench is the repository's benchmark. It times the paper's
// pipelines from generated pixels to detections (FPGA-HoG and NApprox
// with SVM heads, Parrot with an Eedn head) and to spikes (the NApprox
// cell corelet on the TrueNorth simulator), checks their outputs, and
// prints end-to-end metrics or, with --trace 1, per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash .perfbench/run.sh --workload still-fpga --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

const (
	// minItems keeps enough samples for a tail percentile (tail needs
	// more than tailMin).
	minItems = tailMin + 1
	// maxLoopSeconds stops a loop that cannot reach minItems, so a run
	// still ends within its time limit.
	maxLoopSeconds = 120
	// warmupSeconds of untimed items precede every timed loop: the
	// first items of a run pay for cold caches, page faults and heap
	// growth (on video-napprox they ran 1.6x slower than later ones).
	warmupSeconds = 1.5
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics every workload reports with --trace 0. Its
// times are CPU time of the process (see cpuSeconds).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"items_per_cpu_s", "1/s", "higher"},
	{"item_cpu_ms.p50", "ms", "lower"},
	{"item_cpu_ms.tail", "ms", "lower"},
	{"allocs_per_item", "count", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// pipeline is one workload's built system. prepare readies the input
// of item i and item runs the item, through the traced decorators when
// tr is non-nil, returning a digest of its output; only item is timed,
// and the loop waits for it before the next. verify checks item i of a
// plain loop outside the timed region. check runs the reference checks
// once the loops are done, adding workload-specific metrics to r.
type pipeline interface {
	prepare(i int) error
	item(i int, tr *tracer) (uint64, error)
	verify(i int, digest uint64) error
	check(r *report, tr *tracer) error
	close()
}

// workload builds a pipeline from a seed. All inputs come from the
// seed; models are trained on fixed seeds so that their outputs on the
// fixed reference sets can be checked against recorded values.
type workload struct {
	name, why string
	setup     func(seed int64, tr *tracer) (pipeline, error)
	// cycle is the length of a run of items that belong together: a
	// walkers clip and a pan clip, or a pass over a pool of scenes.
	// Warm-up and timed loops run whole cycles, so that every run times
	// the same mix of items and ends holding the same kind of input (on
	// video-napprox, a loop that stopped just after a clip's first frame
	// added that clip's Sequence to allocs_per_item, and one that ended
	// on a pan clip held 4.5 MB more than one that ended on walkers).
	cycle int
	// setups is how many times a plain run builds the pipeline; setup_s
	// is the median. Sub-second set-ups repeat to steady the median; a
	// set-up that trains for seconds runs once (see README.md).
	setups int
}

func workloads() []workload {
	return []workload{
		{"still-fpga", "FPGA-HoG + SVM full scans of 640x480 scenes on one band worker: hog, detect and svm only, the bypass side for Eedn, temporal and simulator changes", setupStillFPGA, stillScenes, 3},
		{"video-napprox", "NApprox + SVM through detect.Sequence over walkers and pan clips: dirty-row splicing, clean-row and pan-hint reuse in place of full scans", setupVideoNApprox, 2 * clipFrames, 3},
		{"cotrain-parrot", "Fig 5 pipeline on one thread at the shipped widths: train parrot and an Eedn head on 8-spike parrot features, scan small scenes with the Eedn scorer", setupCotrainParrot, 1, 1},
		{"chip-napprox", "NApprox cell corelet on the TrueNorth simulator over 10x10 cells cut from scenes: the hardware-validation path, the only one that runs truenorth", setupChipNApprox, 1, 3},
	}
}

// report collects what a run prints.
type report struct {
	workload        workload
	attempted       int
	failed          int
	failures        []string
	metrics         map[string]float64 // the JSON metrics
	notes           []string           // printed beside the metrics
	gcShare         float64
	overhead        float64
	tracePath       string
	replayed        int // items of the traced replay
	tailDesc        string
	hostDesc        string
	workloadMetrics []string // printed end-to-end metrics that only some workloads have
}

// fail records a failed check or operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// addMetric prints a workload-specific end-to-end metric.
func (r *report) addMetric(name string, v float64, unit, note string) {
	r.workloadMetrics = append(r.workloadMetrics, fmt.Sprintf("  %-36s %14.6g %-6s %s", name, v, unit, note))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func run(o options) error {
	var w *workload
	ws := workloads()
	for i := range ws {
		if ws[i].name == o.workload {
			w = &ws[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	r := &report{workload: *w, metrics: map[string]float64{}}
	host, err := hostStamp()
	if err != nil {
		return err
	}
	r.hostDesc = host
	if o.trace == 0 {
		err = runPlain(r, o)
	} else {
		err = runTraced(r, o)
	}
	if err != nil {
		return err
	}
	if !printReport(r, o) {
		os.Exit(1)
	}
	return nil
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(r *report, o options) error {
	var setups, trains []float64
	var p pipeline
	for k := 0; k < r.workload.setups; k++ {
		if p != nil {
			p.close()
		}
		// Collect the last pipeline first, so no set-up pays for it.
		runtime.GC()
		c0 := cpuSeconds()
		q, err := r.workload.setup(o.seed, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
		if t, ok := q.(interface{ trainSeconds() float64 }); ok && t.trainSeconds() > 0 {
			trains = append(trains, t.trainSeconds())
		}
		p = q
	}
	defer p.close()
	first, err := warmUp(r, p)
	if err != nil {
		return err
	}
	l, err := measure(r, p, nil, first, timedFor(o.seconds, r.workload.cycle))
	if err != nil {
		return err
	}
	if err := p.check(r, nil); err != nil {
		return err
	}
	if len(trains) > 0 {
		r.addMetric("train_s", median(trains), "s", "parrot and Eedn-head training, median of the set-ups")
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["items_per_cpu_s"] = float64(len(l.cpu)) / (sum(l.cpu) / 1000)
	r.metrics["item_cpu_ms.p50"] = median(l.cpu)
	v, pct, ok := tail(l.cpu)
	if !ok {
		r.fail("only %d items measured; the tail needs more than %d", len(l.cpu), tailMin)
	}
	r.metrics["item_cpu_ms.tail"] = v
	r.tailDesc = fmt.Sprintf("p%.1f of n=%d", pct, len(l.cpu))
	wallTail, _, _ := tail(l.wall)
	const wallNote = "wall clock; not in the JSON, as it also times the host's other work"
	r.addMetric("items_per_s", float64(len(l.wall))/(sum(l.wall)/1000), "1/s", wallNote)
	r.addMetric("latency_ms.p50", median(l.wall), "ms", wallNote)
	r.addMetric("latency_ms.tail", wallTail, "ms", wallNote)
	r.metrics["allocs_per_item"] = float64(l.allocs) / float64(len(l.cpu))
	r.metrics["heap_live_mb"] = liveHeapMB()
	r.gcShare = l.gcShare()
	r.notes = append(r.notes, fmt.Sprintf("setup_s runs: %s; %d warm-up items", fmtList(setups, "%.4f"), first))
	return nil
}

// warmUp runs whole cycles of items from 0, checked but not timed, for
// warmupSeconds, and returns the index of the first timed item.
func warmUp(r *report, p pipeline) (int, error) {
	cycle := r.workload.cycle
	l, err := measure(r, p, nil, 0, func(n int, el float64) bool {
		return n > 0 && n%cycle == 0 && el >= warmupSeconds
	})
	runtime.GC()
	return len(l.cpu), err
}

// timedFor ends a timed loop at the end of a cycle after seconds and
// minItems items, or after maxLoopSeconds.
func timedFor(seconds float64, cycle int) func(int, float64) bool {
	return func(n int, el float64) bool {
		return el >= maxLoopSeconds || (el >= seconds && n >= minItems && n%cycle == 0)
	}
}

// runTraced builds the pipeline with the decorators, runs the plain
// loop for half the time, replays the same items traced, checks that
// both produced the same outputs, and derives the per-layer metrics.
func runTraced(r *report, o options) error {
	tr := newTracer()
	p, err := r.workload.setup(o.seed, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer p.close()
	first, err := warmUp(r, p)
	if err != nil {
		return err
	}
	plain, err := measure(r, p, nil, first, timedFor(o.seconds/2, r.workload.cycle))
	if err != nil {
		return err
	}
	traced, err := measure(r, p, tr, first, func(n int, _ float64) bool { return n >= len(plain.wall) })
	if err != nil {
		return err
	}
	for i := range plain.digests {
		if plain.digests[i] != traced.digests[i] {
			r.fail("item %d: traced output differs from the plain run", i)
		}
	}
	r.gcShare = plain.gcShare()
	r.overhead = sum(traced.wall)/sum(plain.wall) - 1
	r.replayed = len(traced.wall)
	layerMetrics(r, tr, len(traced.wall))
	if err := p.check(r, tr); err != nil {
		return err
	}
	r.tracePath = fmt.Sprintf(".bench_build/perfbench/trace-%s-seed%d.jsonl", r.workload.name, o.seed)
	if err := tr.write(r.tracePath); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// loopResult is one closed loop's measurements.
type loopResult struct {
	cpu     []float64 // per-item process CPU time, ms
	wall    []float64 // per-item wall-clock latency, ms
	digests []uint64
	allocs  uint64
	gcCPU   [2]float64 // GC and total CPU seconds over the loop
}

func (l loopResult) gcShare() float64 {
	if l.gcCPU[1] <= 0 {
		return 0
	}
	return l.gcCPU[0] / l.gcCPU[1]
}

// cpuSeconds is the CPU time the process has used, in all its threads
// and in the kernel on its behalf. An item runs on one thread, so its
// CPU time is its latency less the time its core ran other work. The
// host shares its cores with other machines, and the wall clock times
// that work too: with a busy loop sharing a core, the tail of 20 s
// runs on chip-napprox spread 29% over five seeds by the wall clock
// and 4% by CPU time. Work the program hands to other goroutines, the
// garbage collector's included, counts as well.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMB collects and returns the live heap: after a loop, what the
// pipeline and its inputs hold between items. The largest live heap
// that the loop's own collections found spread 8-13% from run to run,
// as it depended on where in an item each collection fell. It collects
// twice, as a sync.Pool keeps its objects through one collection:
// after one, still-fpga's live heap was 21.2 MB in some runs and
// 23.0 MB in others, as the detector's pooled scan state was or was
// not still held; after two, it was 18.9 MB in every run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() [2]float64 {
	metrics.Read(cpuSamples)
	var out [2]float64
	for i, s := range cpuSamples {
		if s.Value.Kind() == metrics.KindFloat64 {
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// measure runs a closed loop with one caller: item i+1 starts when item
// i has returned. It runs items from first on until done, given the
// items run and the seconds elapsed, is true, and times each by the
// process CPU clock and the wall clock. Allocation counts are read
// around each item, so the loop's own bookkeeping is not counted.
func measure(r *report, p pipeline, tr *tracer, first int, done func(n int, el float64) bool) (loopResult, error) {
	var l loopResult
	var ms runtime.MemStats
	cpu0 := readCPU()
	start := time.Now()
	for i := first; !done(i-first, time.Since(start).Seconds()); i++ {
		if err := p.prepare(i); err != nil {
			return l, fmt.Errorf("item %d input: %w", i, err)
		}
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		tr.setItem(i - first) // spans number the loop's items from 0
		tr.begin("item")
		c0, t0 := cpuSeconds(), time.Now()
		d, err := p.item(i, tr)
		el, cel := time.Since(t0), cpuSeconds()-c0
		tr.end()
		tr.setItem(setupItem)
		runtime.ReadMemStats(&ms)
		l.allocs += ms.Mallocs - mallocs
		l.cpu = append(l.cpu, cel*1000)
		l.wall = append(l.wall, float64(el.Nanoseconds())/1e6)
		l.digests = append(l.digests, d)
		r.attempted++
		if err != nil {
			r.fail("item %d: %v", i, err)
		} else if tr == nil {
			if err := p.verify(i, d); err != nil {
				r.fail("item %d: %v", i, err)
			}
		}
	}
	cpu1 := readCPU()
	l.gcCPU = [2]float64{cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]}
	return l, nil
}

// hostStamp describes the machine, toolchain and code a result came from.
func hostStamp() (string, error) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	src, err := sourceDigest()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), src), nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func printReport(r *report, o options) bool {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", r.workload.name, o.seed, o.seconds, o.trace)
	fmt.Printf("workload: %s\n", r.workload.why)
	fmt.Printf("host: %s\n", r.hostDesc)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		fmt.Printf("per-layer metrics (traced replay of %d items; tracing overhead %+.1f%%):\n", r.replayed, 100*r.overhead)
	} else {
		fmt.Println("end-to-end metrics:")
	}
	out := map[string]any{}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		note := ""
		if d.name == "item_cpu_ms.tail" {
			note = r.tailDesc
		}
		fmt.Printf("  %-36s %14.6g %-6s %s\n", d.name, v, d.unit, note)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, line := range r.workloadMetrics {
		fmt.Println(line)
	}
	fmt.Printf("  %-36s %14.6g %-6s (%d of %d)\n", "failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "share", r.failed, r.attempted)
	if o.trace == 0 {
		fmt.Printf("  %-36s %14.6g %-6s\n", "runtime.gc_cpu_share", r.gcShare, "share")
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	if r.tracePath != "" {
		fmt.Println("trace:", r.tracePath)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(b))
	return res.Correct
}
