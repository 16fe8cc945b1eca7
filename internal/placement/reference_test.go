package placement

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDeclusteredStripes is DeclusteredStripes as it was before its layout
// went flat: a map of the stripe's disks and a slice per stripe, a new
// deck on every refill and the whole deck copied to put a duplicate back.
// It is the oracle FuzzDeclusteredStripes holds the flat dealer to.
func refDeclusteredStripes(poolSize, width, stripes int, seed int64) ([][]int, error) {
	if width > poolSize {
		return nil, fmt.Errorf("placement: stripe width %d exceeds pool size %d", width, poolSize)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, stripes)
	var deck []int
	for i := 0; i < stripes; i++ {
		s := make([]int, 0, width)
		used := make(map[int]bool, width)
		for len(s) < width {
			if len(deck) == 0 {
				deck = make([]int, poolSize)
				for j := range deck {
					deck[j] = j
				}
				rng.Shuffle(poolSize, func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			d := deck[len(deck)-1]
			deck = deck[:len(deck)-1]
			if used[d] {
				deck = append([]int{d}, deck...)
				d = rng.Intn(poolSize)
				for used[d] {
					d = rng.Intn(poolSize)
				}
			}
			used[d] = true
			s = append(s, d)
		}
		out[i] = s
	}
	return out, nil
}

// FuzzDeclusteredStripes holds DeclusteredStripes to the reference dealer
// disk for disk on arbitrary (poolSize, width, stripes, seed), the error
// case included.
func FuzzDeclusteredStripes(f *testing.F) {
	f.Add(uint8(120), uint8(20), uint16(360), int64(1))
	f.Add(uint8(21), uint8(20), uint16(360), int64(9))
	f.Add(uint8(25), uint8(20), uint16(120), int64(5))
	f.Add(uint8(10), uint8(11), uint16(1), int64(1))
	f.Fuzz(func(t *testing.T, poolSize, width uint8, stripes uint16, seed int64) {
		ps, w, n := 1+int(poolSize), 1+int(width), int(stripes%2048)
		got, err := DeclusteredStripes(ps, w, n, seed)
		want, refErr := refDeclusteredStripes(ps, w, n, seed)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("(%d, %d, %d, %d): error %v, reference error %v", ps, w, n, seed, err, refErr)
		}
		if err != nil {
			return
		}
		if len(got) != n*w {
			t.Fatalf("(%d, %d, %d, %d): %d disks, want %d", ps, w, n, seed, len(got), n*w)
		}
		for s, row := range want {
			for m, d := range row {
				if int(got[s*w+m]) != d {
					t.Fatalf("(%d, %d, %d, %d): stripe %d member %d is disk %d, reference %d",
						ps, w, n, seed, s, m, got[s*w+m], d)
				}
			}
		}
	})
}
