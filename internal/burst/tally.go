package burst

import "slices"

// The evaluators tally failures per pool, network pool or rack group.
// They do it over sorted id slices, never over maps: a run of equal ids
// is one tally, and visiting the runs in ascending order fixes the
// order of every float summation built on them — and with it the last
// ULP of every PDL estimate, run to run and refactor to refactor.

// failedPools returns the local pool id of every failed disk in the
// layout, ascending, in buf if it is large enough. Pools are poolSize
// consecutive disks and racks hold a whole number of them, so a flat
// disk index divided by poolSize is the dense pool id of
// placement.Layout.PoolOfDisk.
func failedPools(buf []int, b *BurstLayout, dpr, poolSize int) []int {
	if n := b.TotalFailures(); cap(buf) < n {
		buf = make([]int, 0, n)
	}
	ids := buf[:0]
	for i, rack := range b.Racks {
		start := len(ids)
		for _, d := range b.FailedDisks[i] {
			ids = append(ids, (rack*dpr+d)/poolSize)
		}
		// Racks ascend, so sorting each rack's ids sorts them all.
		slices.Sort(ids[start:])
	}
	return ids
}

// runLen returns the length of the run of equal ids that ids, which is
// not empty, starts with.
//
//mlec:hot run-length step of every evaluator tally
func runLen(ids []int) int {
	first, n := ids[0], 1
	for n < len(ids) && ids[n] == first {
		n++
	}
	return n
}

// sortByKey stably sorts keys ascending and permutes vals alongside.
// Insertion sort: the inputs are a trial's catastrophic pools, a
// handful, and already sorted by a correlated key.
func sortByKey(keys []int, vals []float64) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], vals[j] = keys[j-1], vals[j-1]
		}
		keys[j], vals[j] = k, v
	}
}
