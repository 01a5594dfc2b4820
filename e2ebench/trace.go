package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share its trace id; the HTTP request is the root (parent 0).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the run's first span
	End    int64  `json:"endNs"`
	// Self is the span's duration minus the part of it its children
	// cover.
	Self int64 `json:"selfNs"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: engine hooks fire from worker goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span whose children may be recorded before it ends;
// close ends it.
func (t *tracer) open(trace string, parent int, name string) int {
	now := time.Now()
	return t.add(trace, parent, name, now, now)
}

func (t *tracer) close(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(sp.End - sp.Start)
}

// write computes self times and writes one JSON object per span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		sp.Self = sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID])
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var sum, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			sum += e - s
			end = e
		}
	}
	return sum
}
