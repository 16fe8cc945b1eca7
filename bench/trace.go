package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval the benchmark recorded around a call into the
// program: which layer it entered, when, and the span that caused it.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 for a root
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartMS  float64 `json:"start_ms"`
	EndMS    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return (s.EndMS - s.StartMS) / 1e3 }

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. A nil tracer records nothing, which is how untraced
// passes run the same code. Used from the benchmark goroutine only.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name,
		StartMS: float64(time.Since(t.origin)) / 1e6,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndMS = float64(time.Since(t.origin)) / 1e6
}

// layerRollup is a layer's share of one traced pass.
type layerRollup struct {
	Layer string
	Count int
	// BusyS sums the layer's span durations; SelfS removes the part its
	// child spans cover.
	BusyS, SelfS float64
}

// rollup aggregates the spans under root by layer.
func (t *tracer) rollup(root int) []layerRollup {
	childTime := map[int]float64{}
	under := map[int]bool{root: true}
	for _, s := range t.spans { // ids ascend, so parents come first
		if under[s.Parent] {
			under[s.ID] = true
			childTime[s.Parent] += s.dur()
		}
	}
	byLayer := map[string]*layerRollup{}
	for _, s := range t.spans {
		if !under[s.ID] {
			continue
		}
		r := byLayer[s.Layer]
		if r == nil {
			r = &layerRollup{Layer: s.Layer}
			byLayer[s.Layer] = r
		}
		r.Count++
		r.BusyS += s.dur()
		r.SelfS += s.dur() - childTime[s.ID]
	}
	out := make([]layerRollup, 0, len(byLayer))
	for _, r := range byLayer {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// sumByName totals the durations of root's direct children whose name
// satisfies match.
func (t *tracer) sumByName(root int, match func(name string) bool) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Parent == root && match(s.Name) {
			total += s.dur()
		}
	}
	return total
}

// writeFile writes the spans to path, one JSON object a line, creating
// the directory.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
