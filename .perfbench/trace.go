package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

// setupItem is the item id of spans recorded while a pipeline is built.
const setupItem = -1

// span is one timed interval of a traced run. Times are nanoseconds
// since the tracer was created. Spans of one item share Item.
//
// Per-window calls (DescriptorInto, Score) run thousands of times per
// item; once their parent span has ended they are folded into one span
// per parent and name, with Calls and BusyNS giving the count and the
// summed duration. All other spans are kept as recorded.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Item   int32  `json:"item"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNS int64  `json:"busy_ns,omitempty"`
	SelfNS int64  `json:"self_ns,omitempty"`
	Px     int64  `json:"px,omitempty"`
}

func (s span) busy() int64 {
	if s.Calls > 0 {
		return s.BusyNS
	}
	return s.End - s.Start
}

func (s span) calls() int64 { return max(s.Calls, 1) }

// folded reports whether spans of this name are folded per parent.
func folded(name string) bool {
	return strings.HasSuffix(name, ".descriptor") || strings.HasSuffix(name, ".score")
}

// tracer records spans in memory. Spans the benchmark opens around its
// calls into the program (begin/end) nest on the calling goroutine;
// the decorators record leaf spans from any goroutine, parented to the
// innermost open span. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time

	item   atomic.Int32 // item whose spans are being recorded
	parent atomic.Int32 // innermost open span, 0 for none

	// threshold is the detector's score threshold: scores at or above
	// it count as candidates.
	threshold  float64
	candidates atomic.Int64

	mu     sync.Mutex
	leaves []span // recorded under open spans, not yet filed

	// Owned by the goroutine that calls begin/end.
	nextID int32
	stack  []span
	spans  []span
	ivs    []interval
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.item.Store(setupItem)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setItem attributes the spans that follow to item i.
func (t *tracer) setItem(i int) {
	if t != nil {
		t.item.Store(int32(i))
	}
}

// begin opens a span around a call into the program.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	s := span{ID: t.nextID, Parent: t.parent.Load(), Item: t.item.Load(), Name: name, Start: t.now()}
	t.stack = append(t.stack, s)
	t.parent.Store(s.ID)
}

// end closes the innermost open span. Its children are filed, per-window
// children folded, and its self time set to its duration minus the
// union of its children's intervals, so children running concurrently
// on several workers count once.
func (t *tracer) end() {
	if t == nil {
		return
	}
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s.End = t.now()
	t.parent.Store(s.Parent)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.ivs = t.ivs[:0]
	keep := t.leaves[:0]
	var fold []span // one per folded name, in first-seen order
	for _, c := range t.leaves {
		if c.Parent != s.ID {
			keep = append(keep, c)
			continue
		}
		t.ivs = append(t.ivs, interval{c.Start, c.End})
		if !folded(c.Name) {
			if c.ID == 0 { // a decorator's leaf; opened spans have their id
				t.nextID++
				c.ID = t.nextID
			}
			t.spans = append(t.spans, c)
			continue
		}
		k := 0
		for k < len(fold) && fold[k].Name != c.Name {
			k++
		}
		if k == len(fold) {
			t.nextID++
			fold = append(fold, span{ID: t.nextID, Parent: s.ID, Item: c.Item, Name: c.Name, Start: c.Start, End: c.End})
		}
		f := &fold[k]
		f.Start, f.End = min(f.Start, c.Start), max(f.End, c.End)
		f.Calls++
		f.BusyNS += c.End - c.Start
		f.Px += c.Px
	}
	t.leaves = keep
	t.spans = append(t.spans, fold...)
	s.SelfNS = s.End - s.Start - unionWithin(t.ivs, s.Start, s.End)
	if s.Parent != 0 {
		// Filed when the parent ends, so its union sees this span.
		t.leaves = append(t.leaves, s)
	} else {
		t.spans = append(t.spans, s)
	}
}

// leaf records a decorated call that started at start and ends now.
func (t *tracer) leaf(name string, start, px int64) {
	end := t.now()
	s := span{Parent: t.parent.Load(), Item: t.item.Load(), Name: name, Start: start, End: end, Px: px}
	t.mu.Lock()
	t.leaves = append(t.leaves, s)
	t.mu.Unlock()
}

// epochs returns an eedn.TrainConfig.Verbose callback that records one
// span per training epoch, from the previous epoch's callback (for the
// first epoch: the end of the open span's last child, or its start) to
// this one.
func (t *tracer) epochs(name string) func(epoch int, loss float64) {
	if t == nil {
		return nil
	}
	last := int64(-1)
	return func(int, float64) {
		if last < 0 {
			last = t.stack[len(t.stack)-1].Start
			id := t.parent.Load()
			t.mu.Lock()
			for _, c := range t.leaves {
				if c.Parent == id {
					last = max(last, c.End)
				}
			}
			t.mu.Unlock()
		}
		t.leaf(name, last, 0)
		last = t.now()
	}
}

// write stores every filed span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedExtractor times every method of a core.Extractor (which
// includes detect.Extractor) and forwards it unchanged.
type tracedExtractor struct {
	inner                        core.Extractor
	tr                           *tracer
	grid, desc, cellGrid, descAt string
}

// traceExtractor decorates e with spans named after layer, e.g.
// "hog.grid" and "hog.descriptor"; Descriptor, the whole-window form
// used in training, records "core.descriptor". With a nil tracer it
// returns e itself.
func (t *tracer) traceExtractor(e core.Extractor, layer string) core.Extractor {
	if t == nil {
		return e
	}
	return &tracedExtractor{
		inner: e, tr: t,
		grid: layer + ".grid", desc: layer + ".descriptor",
		cellGrid: layer + ".cellgrid", descAt: layer + ".descriptor_at",
	}
}

func (x *tracedExtractor) GridInto(g *hog.Grid, img *imgproc.Image) {
	t0 := x.tr.now()
	x.inner.GridInto(g, img)
	x.tr.leaf(x.grid, t0, int64(img.W)*int64(img.H))
}

func (x *tracedExtractor) DescriptorInto(dst []float64, g *hog.Grid, cellX, cellY int) ([]float64, error) {
	t0 := x.tr.now()
	d, err := x.inner.DescriptorInto(dst, g, cellX, cellY)
	x.tr.leaf(x.desc, t0, 0)
	return d, err
}

func (x *tracedExtractor) CellGrid(img *imgproc.Image) [][][]float64 {
	t0 := x.tr.now()
	g := x.inner.CellGrid(img)
	x.tr.leaf(x.cellGrid, t0, int64(img.W)*int64(img.H))
	return g
}

func (x *tracedExtractor) DescriptorAt(grid [][][]float64, cellX, cellY int) ([]float64, error) {
	t0 := x.tr.now()
	d, err := x.inner.DescriptorAt(grid, cellX, cellY)
	x.tr.leaf(x.descAt, t0, 0)
	return d, err
}

func (x *tracedExtractor) Descriptor(window *imgproc.Image) ([]float64, error) {
	t0 := x.tr.now()
	d, err := x.inner.Descriptor(window)
	x.tr.leaf("core.descriptor", t0, 0)
	return d, err
}

// tracedScorer times detect.Scorer.Score and counts the scores of
// measured items that reach the tracer's threshold.
type tracedScorer struct {
	inner detect.Scorer
	tr    *tracer
	name  string
}

// traceScorer decorates s with spans named layer+".score". With a nil
// tracer it returns s itself.
func (t *tracer) traceScorer(s detect.Scorer, layer string) detect.Scorer {
	if t == nil {
		return s
	}
	return &tracedScorer{inner: s, tr: t, name: layer + ".score"}
}

func (x *tracedScorer) Score(v []float64) float64 {
	t0 := x.tr.now()
	s := x.inner.Score(v)
	x.tr.leaf(x.name, t0, 0)
	if s >= x.tr.threshold && x.tr.item.Load() >= 0 {
		x.tr.candidates.Add(1)
	}
	return s
}
