package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from the
// recorder's epoch; Parent is the index of the enclosing span, -1 for a
// root. Spans of one flow share its Flow number.
type span struct {
	Name   string        `json:"name"`
	Flow   int           `json:"flow"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory for one goroutine. It records only around
// the benchmark's own calls into the program; nothing inside the program is
// instrumented.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	flow  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Flow: r.flow, Parent: parent, Start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// do records f as one span.
func (r *recorder) do(name string, f func() error) error {
	id := r.begin(name)
	err := f()
	r.end(id)
	return err
}

// childTime returns, per span, the time its direct children cover. Children
// of one span run sequentially, so their durations never overlap.
func (r *recorder) childTime() []time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// layerTimes returns, per span name, the self time of every span of that
// name: its duration minus the time its direct children cover.
func (r *recorder) layerTimes() map[string][]time.Duration {
	child := r.childTime()
	out := make(map[string][]time.Duration)
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
	}
	return out
}

// uncovered returns the summed self time and summed duration of the root
// spans; their quotient is the share of traced wall time no layer span
// accounts for.
func (r *recorder) uncovered() (self, total time.Duration) {
	child := r.childTime()
	for i, s := range r.spans {
		if s.Parent < 0 {
			total += s.End - s.Start
			self += s.End - s.Start - child[i]
		}
	}
	return self, total
}

// write stores the spans as JSON under dir and returns the file's path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return p, os.WriteFile(p, b, 0o644)
}
