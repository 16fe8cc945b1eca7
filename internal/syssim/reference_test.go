package syssim

import (
	"math/rand"
	"testing"
)

// refFindPool is failRandomDisk's pool choice as a linear scan over the
// per-pool healthy counts, as it was before the Fenwick tree: the first
// pool whose running count exceeds target, or -1 past the last disk.
func refFindPool(healthy []int, target int) int {
	for p, h := range healthy {
		if target < h {
			return p
		}
		target -= h
	}
	return -1
}

// TestFenwickMatchesLinearScan holds fenwick.find to the linear scan for
// every target on random healthy vectors — zero pools at either end and
// in runs, one pool, lengths on and off a power of two — kept current by
// add's increments and decrements as failRandomDisk and onDisksHealed
// make them.
func TestFenwickMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100, 480, 2880} {
		for trial := 0; trial < 2; trial++ {
			healthy := make([]int, n)
			tree := make(fenwick, n+1)
			for p := range healthy {
				if rng.Intn(3) > 0 {
					healthy[p] = rng.Intn(9)
					tree.add(p, healthy[p])
				}
			}
			for step := 0; step < 3; step++ {
				total := 0
				for _, h := range healthy {
					total += h
				}
				for target := 0; target < total; target++ {
					if got, want := tree.find(target), refFindPool(healthy, target); got != want {
						t.Fatalf("n=%d %v: find(%d) = %d, linear scan %d", n, healthy, target, got, want)
					}
				}
				// Fail and heal disks the way the simulator does.
				for range n {
					p := rng.Intn(n)
					d := rng.Intn(5) - 2
					if healthy[p]+d >= 0 {
						healthy[p] += d
						tree.add(p, d)
					}
				}
			}
		}
	}
}
