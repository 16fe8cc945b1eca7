package placement

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mlec/internal/topology"
)

func defaultLayout(t *testing.T, s Scheme) *Layout {
	t.Helper()
	l, err := NewLayout(topology.Default(), DefaultParams(), s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParams(t *testing.T) {
	p := DefaultParams()
	if p.String() != "(10+2)/(17+3)" {
		t.Errorf("String = %q", p.String())
	}
	if p.NetworkWidth() != 12 || p.LocalWidth() != 20 {
		t.Errorf("widths %d/%d", p.NetworkWidth(), p.LocalWidth())
	}
	// Overhead = 1 − (10·17)/(12·20) = 1 − 170/240 ≈ 0.2917.
	if got := p.StorageOverhead(); got < 0.29 || got > 0.30 {
		t.Errorf("StorageOverhead = %g", got)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeCC: "C/C", SchemeCD: "C/D", SchemeDC: "D/C", SchemeDD: "D/D",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%v String = %q, want %q", s, s.String(), w)
		}
	}
}

func TestPoolGeometryPaperSetup(t *testing.T) {
	// Section 3: local-Cp pool = 20 disks, local-Dp pool = 120 disks.
	cases := []struct {
		scheme                Scheme
		poolSize, poolsPerEnc int
		totalPools            int
		netPools              int
	}{
		{SchemeCC, 20, 6, 2880, 5 * 48}, // 60/12 groups × 48 positions/rack
		{SchemeCD, 120, 1, 480, 5 * 8},
		{SchemeDC, 20, 6, 2880, 1},
		{SchemeDD, 120, 1, 480, 1},
	}
	for _, c := range cases {
		l := defaultLayout(t, c.scheme)
		if got := l.LocalPoolSize(); got != c.poolSize {
			t.Errorf("%v LocalPoolSize = %d, want %d", c.scheme, got, c.poolSize)
		}
		if got := l.LocalPoolsPerEnclosure(); got != c.poolsPerEnc {
			t.Errorf("%v LocalPoolsPerEnclosure = %d, want %d", c.scheme, got, c.poolsPerEnc)
		}
		if got := l.TotalLocalPools(); got != c.totalPools {
			t.Errorf("%v TotalLocalPools = %d, want %d", c.scheme, got, c.totalPools)
		}
		if got := l.TotalNetworkPools(); got != c.netPools {
			t.Errorf("%v TotalNetworkPools = %d, want %d", c.scheme, got, c.netPools)
		}
	}
}

func TestPoolOfDiskPartitions(t *testing.T) {
	for _, s := range AllSchemes {
		l := defaultLayout(t, s)
		counts := make(map[int]int)
		for d := 0; d < l.Topo.TotalDisks(); d++ {
			p := l.PoolOfDisk(d)
			if p < 0 || p >= l.TotalLocalPools() {
				t.Fatalf("%v disk %d → pool %d out of range", s, d, p)
			}
			counts[p]++
			if got := l.RackOfPool(p); got != l.Topo.RackOf(d) {
				t.Fatalf("%v disk %d pool %d: rack %d != %d", s, d, p, got, l.Topo.RackOf(d))
			}
		}
		if len(counts) != l.TotalLocalPools() {
			t.Fatalf("%v covers %d pools, want %d", s, len(counts), l.TotalLocalPools())
		}
		for p, c := range counts {
			if c != l.LocalPoolSize() {
				t.Fatalf("%v pool %d has %d disks, want %d", s, p, c, l.LocalPoolSize())
			}
		}
	}
}

func TestNetworkPoolAlignment(t *testing.T) {
	// For C/* schemes, pools in one network pool must share a rack group
	// and a position, and each network pool has exactly kn+pn members.
	l := defaultLayout(t, SchemeCC)
	members := make(map[int][]int)
	for p := 0; p < l.TotalLocalPools(); p++ {
		members[l.NetworkPoolOf(p)] = append(members[l.NetworkPoolOf(p)], p)
	}
	if len(members) != l.TotalNetworkPools() {
		t.Fatalf("%d network pools, want %d", len(members), l.TotalNetworkPools())
	}
	for np, ps := range members {
		if len(ps) != l.Params.NetworkWidth() {
			t.Fatalf("network pool %d has %d members, want %d", np, len(ps), l.Params.NetworkWidth())
		}
		pos := l.PositionOfPool(ps[0])
		grp := l.RackGroupOfRack(l.RackOfPool(ps[0]))
		racks := make(map[int]bool)
		for _, p := range ps {
			if l.PositionOfPool(p) != pos {
				t.Fatalf("network pool %d mixes positions", np)
			}
			if l.RackGroupOfRack(l.RackOfPool(p)) != grp {
				t.Fatalf("network pool %d mixes rack groups", np)
			}
			racks[l.RackOfPool(p)] = true
		}
		if len(racks) != l.Params.NetworkWidth() {
			t.Fatalf("network pool %d spans %d racks, want %d", np, len(racks), l.Params.NetworkWidth())
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	topo := topology.Default()
	// 60 racks not divisible by kn+pn=13 → C/* invalid.
	bad := Params{KN: 10, PN: 3, KL: 17, PL: 3}
	if _, err := NewLayout(topo, bad, SchemeCC); err == nil {
		t.Error("C/C with 13-wide network accepted for 60 racks")
	}
	// D/* has no divisibility constraint.
	if _, err := NewLayout(topo, bad, SchemeDD); err != nil {
		t.Errorf("D/D with 13-wide network rejected: %v", err)
	}
	// Local width not dividing 120 → */c invalid.
	bad2 := Params{KN: 10, PN: 2, KL: 20, PL: 3}
	if _, err := NewLayout(topo, bad2, SchemeCC); err == nil {
		t.Error("C/C with 23-wide local accepted for 120-disk enclosures")
	}
	if _, err := NewLayout(topo, bad2, SchemeCD); err != nil {
		t.Errorf("C/D with 23-wide local rejected: %v", err)
	}
}

func TestStripeCounts(t *testing.T) {
	l := defaultLayout(t, SchemeCC)
	// Local-Cp pool = 20 disks × 20 TB = 400 TB; 20-chunk stripes of
	// 128 KB chunks → 400e12/(20·128e3) = 1.5625e8 stripes.
	want := 400e12 / (20 * 128e3)
	if got := l.LocalStripesPerPool(); got != want {
		t.Errorf("LocalStripesPerPool = %g, want %g", got, want)
	}
	// Total network stripes × kn+pn × stripes... every local stripe in
	// exactly one network stripe.
	totalLocal := l.LocalStripesPerPool() * float64(l.TotalLocalPools())
	if got := l.TotalNetworkStripes() * float64(l.Params.NetworkWidth()); got != totalLocal {
		t.Errorf("network stripes don't partition local stripes: %g vs %g", got, totalLocal)
	}
	if got := l.LocalPoolDataBytes(); got != 400e12 {
		t.Errorf("LocalPoolDataBytes = %g, want 400 TB", got)
	}
	ld := defaultLayout(t, SchemeCD)
	if got := ld.LocalPoolDataBytes(); got != 2400e12 {
		t.Errorf("Dp LocalPoolDataBytes = %g, want 2400 TB", got)
	}
}

// rows splits a flat layout into its stripes.
func rows(flat []int32, width int) [][]int32 {
	return slices.Collect(slices.Chunk(flat, width))
}

func TestDeclusteredStripes(t *testing.T) {
	const poolSize, width, stripes = 120, 20, 3000
	layout, err := DeclusteredStripes(poolSize, width, stripes, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout) != stripes*width {
		t.Fatalf("got %d disks for %d stripes", len(layout), stripes)
	}
	perDisk := make([]int, poolSize)
	for si, s := range rows(layout, width) {
		seen := make(map[int32]bool)
		for _, d := range s {
			if d < 0 || int(d) >= poolSize {
				t.Fatalf("stripe %d references disk %d", si, d)
			}
			if seen[d] {
				t.Fatalf("stripe %d repeats disk %d", si, d)
			}
			seen[d] = true
			perDisk[d]++
		}
	}
	// Balance: per-disk load within ±20% of the mean.
	mean := float64(stripes*width) / float64(poolSize)
	for d, c := range perDisk {
		if float64(c) < 0.8*mean || float64(c) > 1.2*mean {
			t.Errorf("disk %d holds %d chunks, mean %.1f", d, c, mean)
		}
	}
}

func TestDeclusteredStripesDeterministic(t *testing.T) {
	a, err := DeclusteredStripes(30, 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeclusteredStripes(30, 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different layouts")
	}
	c, err := DeclusteredStripes(30, 5, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestClusteredStripes(t *testing.T) {
	layout, err := ClusteredStripes(20, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout) != 5*20 {
		t.Fatalf("got %d disks for 5 stripes", len(layout))
	}
	for _, s := range rows(layout, 20) {
		for i, d := range s {
			if int(d) != i {
				t.Fatal("clustered stripe must span the pool in order")
			}
		}
	}
	if _, err := ClusteredStripes(21, 20, 1); err == nil {
		t.Fatal("ClusteredStripes with width != poolSize did not error")
	}
}

func TestDeclusteredWidthErrors(t *testing.T) {
	if _, err := DeclusteredStripes(10, 11, 1, 1); err == nil {
		t.Fatal("DeclusteredStripes width > pool did not error")
	}
}

func TestPositionOfPoolStableAcrossRacks(t *testing.T) {
	l := defaultLayout(t, SchemeCC)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		pos := rng.Intn(l.LocalPoolsPerRack())
		r1, r2 := rng.Intn(60), rng.Intn(60)
		p1 := r1*l.LocalPoolsPerRack() + pos
		p2 := r2*l.LocalPoolsPerRack() + pos
		if l.PositionOfPool(p1) != l.PositionOfPool(p2) {
			t.Fatal("same-position pools disagree on PositionOfPool")
		}
	}
}

// TestDeclusteredStripesQuick: property test over random geometries —
// every generated layout must have distinct in-range disks per stripe.
func TestDeclusteredStripesQuick(t *testing.T) {
	if err := quick.Check(func(seed int64, a, b, c uint8) bool {
		poolSize := 4 + int(a%60)
		width := 2 + int(b%uint8(poolSize-1))
		if width > poolSize {
			width = poolSize
		}
		stripes := 1 + int(c%40)
		layout, err := DeclusteredStripes(poolSize, width, stripes, seed)
		if err != nil {
			return false
		}
		if len(layout) != stripes*width {
			return false
		}
		for _, s := range rows(layout, width) {
			seen := map[int32]bool{}
			for _, d := range s {
				if d < 0 || int(d) >= poolSize || seen[d] {
					return false
				}
				seen[d] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolOfDiskQuick: the disk→pool map must respect enclosure
// boundaries for every scheme and random disk.
func TestPoolOfDiskQuick(t *testing.T) {
	topo := topology.Default()
	params := DefaultParams()
	layouts := make([]*Layout, 0, 4)
	for _, s := range AllSchemes {
		layouts = append(layouts, MustNewLayout(topo, params, s))
	}
	if err := quick.Check(func(n uint32) bool {
		d := int(n) % topo.TotalDisks()
		for _, l := range layouts {
			p := l.PoolOfDisk(d)
			// The pool's enclosure must be the disk's enclosure.
			if p/l.LocalPoolsPerEnclosure() != topo.EnclosureIndexOf(d) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
