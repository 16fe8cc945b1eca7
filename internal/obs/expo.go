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
// exposition format (version 0.0.4): per metric, sorted by name, one
// # TYPE line and one sample. Output is fully deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, kv := range SortedSnapshot(r.copyMetrics()) {
		v := kv.Value.(interface{ Value() int64 }).Value() // *Counter | *Gauge
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", kv.Key, metricKind(kv.Value), kv.Key, v); err != nil {
			return err
		}
	}
	return nil
}
