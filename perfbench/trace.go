package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// Spans are recorded only in a traced run (--trace 1), by the
// benchmark's own code around each call it makes into a layer's public
// function. They stay in memory and are written out once, at exit. The
// per-layer metrics are computed from them.

// span is one timed call. parent is the id of the phase span (a
// workload phase or a ladder rung) the call ran under.
type span struct {
	name   string
	parent int64
	start  int64 // ns since the tracer's base
	dur    int64
}

// maxSpansPerBuf bounds one goroutine's span memory (40 MiB worst case
// per buffer); calls past it are counted, not recorded.
const maxSpansPerBuf = 1 << 20

// tracer owns every span buffer of a run. A nil *tracer and a nil
// *spanBuf record nothing, so untraced code paths pay one nil check.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's span buffer; it is not safe for
// concurrent use.
type spanBuf struct {
	t       *tracer
	idx     int64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buf registers a new span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, idx: int64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

// add records a call that ran from start to end and returns its id.
func (b *spanBuf) add(name string, parent int64, start, end time.Time) int64 {
	if b == nil {
		return -1
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: name, parent: parent,
		start: start.Sub(b.t.base).Nanoseconds(), dur: end.Sub(start).Nanoseconds()})
	return b.idx<<32 | int64(len(b.spans)-1)
}

// open starts a phase span (a workload phase or a ladder rung) that
// later calls name as their parent; close ends it.
func (b *spanBuf) open(name string, parent int64) int64 {
	now := time.Now()
	return b.add(name, parent, now, now)
}

func (b *spanBuf) close(id int64) {
	if b == nil || id < 0 {
		return
	}
	s := &b.spans[id&(1<<32-1)]
	s.dur = time.Since(b.t.base).Nanoseconds() - s.start
}

// durations returns the durations in ns of every recorded span named
// name, across all buffers.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name {
				out = append(out, s.dur)
			}
		}
	}
	return out
}

// total returns the summed duration of spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum int64
	for _, x := range t.durations(name) {
		sum += x
	}
	return time.Duration(sum)
}

// write dumps every span as CSV (id, parent, name, start and duration
// in ns) to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,parent,name,start_ns,dur_ns")
	dropped := 0
	for _, b := range t.bufs {
		dropped += b.dropped
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", b.idx<<32|int64(i), s.parent, s.name, s.start, s.dur)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "# %d spans dropped past the per-buffer cap\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
