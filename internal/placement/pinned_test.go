package placement

import (
	"hash/fnv"
	"testing"
)

// TestDeclusteredStripesPinned holds DeclusteredStripes to the layouts it
// produced as a map-and-reallocated-deck dealer: the paper's declustered
// pool (120 disks, width 20, 360 stripes) at several seeds, and near-full
// pools (21 and 25 disks, width 20) whose refilled decks keep turning up a
// disk the stripe already holds, so the duplicate redraw runs. The layout
// seeds every simulator's pool, so a moved hash moves every declustered
// result.
func TestDeclusteredStripesPinned(t *testing.T) {
	pins := []struct {
		poolSize, width, stripes int
		seed                     int64
		hash                     uint64
	}{
		{120, 20, 360, 1, 0xa3682da1126878fd},
		{120, 20, 360, 7, 0xa97258c65992cf9d},
		{120, 20, 360, 42, 0x72b88d4fddf48b8d},
		{120, 20, 360, -3, 0x2eb95c7781050485},
		{120, 20, 360, 1 << 40, 0xe1a3814932f24b8d},
		{21, 20, 360, 1, 0xb23ad99f4b5474be},
		{21, 20, 360, 9, 0xf566949323383ad3},
		{25, 20, 120, 5, 0xa4edd68926be48ab},
	}
	for _, p := range pins {
		flat, err := DeclusteredStripes(p.poolSize, p.width, p.stripes, p.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, d := range flat {
			h.Write([]byte{byte(d), byte(d >> 8)})
		}
		if got := h.Sum64(); got != p.hash {
			t.Errorf("DeclusteredStripes(%d, %d, %d, %d): hash %#x, want %#x",
				p.poolSize, p.width, p.stripes, p.seed, got, p.hash)
		}
	}
}
