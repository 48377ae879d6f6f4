package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. A root span
// (a client call, or a core call of the embedded replay) is its own
// trace: its id is its trace id. Page-file spans have no parent and are
// marked cause-unknown, because the engine issues them from whichever
// goroutine needs the page.
type span struct {
	id, parent, trace uint64
	name              string
	start, end        int64 // ns since the tracer's epoch
	causeUnknown      bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) uint64 {
	t.mu.Lock()
	s.id = uint64(len(t.spans)) + 1
	if s.trace == 0 {
		s.trace = s.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.id
}

// root records a span that starts its own trace.
func (t *tracer) root(name string, t0, t1 time.Time) uint64 {
	return t.add(span{name: name, start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch))})
}

// unparented records a span whose cause is unknown.
func (t *tracer) unparented(name string, t0, t1 time.Time) {
	t.add(span{name: name, start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch)), causeUnknown: true})
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		cause := "root"
		if s.causeUnknown {
			cause = "unknown"
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"trace":%d,"name":%q,"start_ns":%d,"end_ns":%d,"cause":%q}`+"\n",
			s.id, s.parent, s.trace, s.name, s.start, s.end, cause)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what the spans of one name add up to.
type spanSummary struct {
	name    string
	count   int
	total   time.Duration // sum of durations
	self    time.Duration // sum of durations minus the part child spans cover
	p50     time.Duration
	covered time.Duration // union of the spans' intervals
}

// summarize computes each span name's count, total, self time, median
// duration and busy time (the union of its intervals).
func summarize(spans []span) map[string]*spanSummary {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]*spanSummary)
	durs := make(map[string][]time.Duration)
	intervals := make(map[string][][2]int64)
	for _, s := range spans {
		sum := out[s.name]
		if sum == nil {
			sum = &spanSummary{name: s.name}
			out[s.name] = sum
		}
		d := time.Duration(s.end - s.start)
		var kids [][2]int64
		for _, c := range children[s.id] {
			kids = append(kids, [2]int64{max(c.start, s.start), min(c.end, s.end)})
		}
		sum.count++
		sum.total += d
		sum.self += d - time.Duration(unionLen(kids))
		durs[s.name] = append(durs[s.name], d)
		intervals[s.name] = append(intervals[s.name], [2]int64{s.start, s.end})
	}
	for name, sum := range out {
		sum.p50 = quantile(durs[name], 0.5)
		sum.covered = time.Duration(unionLen(intervals[name]))
	}
	return out
}

// unionLen is the length of the union of intervals. It sorts iv.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// quantile returns the nearest-rank q-quantile of d, sorting it.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}
