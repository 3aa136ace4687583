package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer, kept in memory until the run ends.
// A span either times a single call (calls == 1, busy == end-start) or, for
// calls too fine-grained to keep one record each (a distance evaluation, a
// shift), aggregates every call of one name under one parent: calls counts
// them, start/end bracket the first and last, and busy sums their
// durations. A frame span times the replay's own copy of a piece of the
// program's control flow (the facade, KShapeRun's loop) rather than a call
// into a layer's public function; its self time is the job time that no
// layer call covers. All times are nanoseconds since the tracer's origin.
type span struct {
	job    int
	id     int
	parent int // -1 for a job's root span
	name   string
	frame  bool
	start  int64
	end    int64
	busy   int64
	calls  int
}

// layer is the module a span's name belongs to ("dist" for
// "dist.DistanceScratch").
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer records spans around calls into the program's layers. It is used
// from one goroutine: the traced replay is serial, so a parent's children
// never overlap in time and the part of a parent's interval they cover is
// the sum of their busy times.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of the open spans, innermost last
	job    int
	paused int64 // total time the clock was stopped by pause/resume
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now reads the tracer's clock: time since origin, less paused time.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) - t.paused }

// pause stops the clock for work that no span should include (sampling,
// memory statistics); pass its result to resume.
func (t *tracer) pause() int64 { return t.now() }

// resume restarts the clock stopped at since.
func (t *tracer) resume(since int64) { t.paused += t.now() - since }

// reserve makes room for n more spans without growing the span buffer.
func (t *tracer) reserve(n int) {
	if cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, 2*cap(t.spans)+n), t.spans...)
	}
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span around a call named name under the innermost open
// span.
func (t *tracer) begin(name string) int { return t.push(name, false) }

// frame opens a frame span named name under the innermost open span.
func (t *tracer) frame(name string) int { return t.push(name, true) }

func (t *tracer) push(name string, frame bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{job: t.job, id: id, parent: t.parent(), name: name, frame: frame, start: t.now(), calls: 1})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.end = t.now()
	s.busy = s.end - s.start
	t.open = t.open[:len(t.open)-1]
}

// group opens an aggregate span for the calls named name under the
// innermost open span; time each call with add. A group is never open, so
// it takes no children.
func (t *tracer) group(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{job: t.job, id: id, parent: t.parent(), name: name, start: -1})
	return id
}

// add records one call of group g that started at start (a t.now()
// reading) and ends now.
func (t *tracer) add(g int, start int64) {
	end := t.now()
	s := &t.spans[g]
	if s.calls == 0 {
		s.start = start
	}
	s.end = end
	s.busy += end - start
	s.calls++
}

// selfTimes returns each span's self time: its busy time minus the busy
// time of its children. Summed over one job's spans, self times equal the
// job's root span exactly.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].busy
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].busy
		}
	}
	return self
}
