package obs

import "sort"

// KV is one key/value pair of a SortedSnapshot.
type KV[V any] struct {
	Key   string
	Value V
}

// SortedSnapshot copies a string-keyed map into a slice sorted by key.
// Code that renders a map (mlectrace's event and span summaries)
// iterates through it instead of ranging the map directly, so output
// order is deterministic and mlecvet's maporder analyzer stays clean by
// construction.
func SortedSnapshot[V any](m map[string]V) []KV[V] {
	out := make([]KV[V], 0, len(m))
	for k, v := range m {
		out = append(out, KV[V]{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
