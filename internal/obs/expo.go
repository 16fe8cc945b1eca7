package obs

import (
	"fmt"
	"io"
	"sort"
)

// KV is one key/value pair of a SortedSnapshot.
type KV[V any] struct {
	Key   string
	Value V
}

// SortedSnapshot copies a string-keyed map into a slice sorted by key.
// Every exposition path in this package (and any engine code that
// renders a map) iterates through it instead of ranging the map
// directly, so output order is deterministic and mlecvet's maporder
// analyzer stays clean by construction.
func SortedSnapshot[V any](m map[string]V) []KV[V] {
	out := make([]KV[V], 0, len(m))
	for k, v := range m {
		out = append(out, KV[V]{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// copyMetrics snapshots the metric map under the lock so exposition
// never holds it while formatting.
func (r *Registry) copyMetrics() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for k, v := range r.metrics {
		out[k] = v
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per base metric
// name followed by its samples. Output is fully deterministic: metrics
// sort by name, label blocks are canonicalized with sorted keys.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := make(map[string]string)   // base name -> prometheus type
	lines := make(map[string][]string) // base name -> rendered sample lines
	for _, kv := range SortedSnapshot(r.copyMetrics()) {
		base, labels, ok := splitName(kv.Key)
		if !ok {
			continue // registry names are validated at creation; defensive
		}
		v := kv.Value.(interface{ Value() int64 }).Value() // *Counter | *Gauge
		typed[base] = metricKind(kv.Value)
		lines[base] = append(lines[base], fmt.Sprintf("%s%s %d", base, formatLabels(labels), v))
	}
	for _, kv := range SortedSnapshot(lines) {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", kv.Key, typed[kv.Key]); err != nil {
			return err
		}
		for _, line := range kv.Value {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
