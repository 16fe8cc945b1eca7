// Package placement implements the chunk/parity placement schemes of the
// paper's Section 2.2: the four MLEC schemes (C/C, C/D, D/C, D/D obtained
// by permuting clustered/declustered placement at the network and local
// levels), the four SLEC placements of Section 5.1.3 (Local-Cp, Local-Dp,
// Network-Cp, Network-Dp), and the LRC-Dp placement of Section 5.2.
//
// The package answers the geometric questions the analyses need — which
// local pool a disk belongs to, which pools align into a network pool,
// how many stripes a pool holds at true chunk granularity — and provides
// seeded pseudorandom declustered stripe layouts at configurable segment
// granularity for the event-driven simulators.
package placement

import (
	"fmt"
	"math/rand"

	"mlec/internal/topology"
)

// Kind selects clustered or declustered parity placement at one level.
type Kind int

const (
	// Clustered ("Cp"): every k+p devices form a pool; a stripe either
	// has all chunks in the pool or none.
	Clustered Kind = iota
	// Declustered ("Dp"): a pool spans (much) more than k+p devices and
	// stripes are pseudorandomly spread across them.
	Declustered
)

// String renders the paper's Cp/Dp abbreviations.
func (k Kind) String() string {
	switch k {
	case Clustered:
		return "C"
	case Declustered:
		return "D"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Scheme is an MLEC placement scheme: a placement kind at each level.
type Scheme struct {
	Network Kind // inter-rack placement of local stripes
	Local   Kind // intra-enclosure placement of chunks
}

// The four MLEC schemes of Figure 3.
var (
	SchemeCC = Scheme{Clustered, Clustered}
	SchemeCD = Scheme{Clustered, Declustered}
	SchemeDC = Scheme{Declustered, Clustered}
	SchemeDD = Scheme{Declustered, Declustered}
)

// AllSchemes lists the four MLEC schemes in the paper's presentation
// order.
var AllSchemes = []Scheme{SchemeCC, SchemeCD, SchemeDC, SchemeDD}

// String renders the paper's C/C … D/D notation.
func (s Scheme) String() string { return s.Network.String() + "/" + s.Local.String() }

// Params holds the MLEC code parameters in the paper's
// (kn+pn)/(kl+pl) notation.
type Params struct {
	KN, PN int // network-level data and parity local-stripes
	KL, PL int // local-level data and parity chunks
}

// DefaultParams is the paper's (10+2)/(17+3) configuration.
func DefaultParams() Params { return Params{KN: 10, PN: 2, KL: 17, PL: 3} }

// String renders "(10+2)/(17+3)".
func (p Params) String() string {
	return fmt.Sprintf("(%d+%d)/(%d+%d)", p.KN, p.PN, p.KL, p.PL)
}

// NetworkWidth returns kn+pn.
func (p Params) NetworkWidth() int { return p.KN + p.PN }

// LocalWidth returns kl+pl.
func (p Params) LocalWidth() int { return p.KL + p.PL }

// StorageOverhead returns the total parity capacity overhead of the
// two-level code: 1 − (kn·kl)/((kn+pn)(kl+pl)).
func (p Params) StorageOverhead() float64 {
	return 1 - float64(p.KN*p.KL)/float64(p.NetworkWidth()*p.LocalWidth())
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.KN <= 0 || p.PN < 0 || p.KL <= 0 || p.PL < 0 {
		return fmt.Errorf("placement: invalid params %v", p)
	}
	return nil
}

// Layout binds a topology, MLEC parameters, and a scheme, answering all
// pool-geometry queries.
type Layout struct {
	Topo   topology.Config
	Params Params
	Scheme Scheme
}

// NewLayout validates the combination and returns a Layout.
//
// Constraints from Section 2.2: network-clustered schemes require the rack
// count to be a multiple of kn+pn; local-clustered schemes require the
// enclosure size to be a multiple of kl+pl. Declustered levels have no
// divisibility constraint (pools just need to be wider than the stripe).
func NewLayout(topo topology.Config, params Params, scheme Scheme) (*Layout, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	l := &Layout{Topo: topo, Params: params, Scheme: scheme}
	if scheme.Local == Clustered {
		if topo.DisksPerEnclosure%params.LocalWidth() != 0 {
			return nil, fmt.Errorf(
				"placement: local-Cp requires enclosure size %d divisible by kl+pl=%d",
				topo.DisksPerEnclosure, params.LocalWidth())
		}
	} else if topo.DisksPerEnclosure < params.LocalWidth() {
		return nil, fmt.Errorf(
			"placement: local-Dp pool (%d disks) narrower than kl+pl=%d",
			topo.DisksPerEnclosure, params.LocalWidth())
	}
	if scheme.Network == Clustered {
		if topo.Racks%params.NetworkWidth() != 0 {
			return nil, fmt.Errorf(
				"placement: network-Cp requires rack count %d divisible by kn+pn=%d",
				topo.Racks, params.NetworkWidth())
		}
	} else if topo.Racks < params.NetworkWidth() {
		return nil, fmt.Errorf(
			"placement: network-Dp needs ≥ kn+pn=%d racks, have %d",
			params.NetworkWidth(), topo.Racks)
	}
	return l, nil
}

// MustNewLayout is NewLayout but panics on error.
func MustNewLayout(topo topology.Config, params Params, scheme Scheme) *Layout {
	l, err := NewLayout(topo, params, scheme)
	if err != nil {
		panic(err)
	}
	return l
}

// LocalPoolSize returns the number of disks in one local pool:
// kl+pl for local-Cp, the whole enclosure for local-Dp.
func (l *Layout) LocalPoolSize() int {
	if l.Scheme.Local == Clustered {
		return l.Params.LocalWidth()
	}
	return l.Topo.DisksPerEnclosure
}

// LocalPoolsPerEnclosure returns how many local pools one enclosure holds.
func (l *Layout) LocalPoolsPerEnclosure() int {
	return l.Topo.DisksPerEnclosure / l.LocalPoolSize()
}

// LocalPoolsPerRack returns the local pool count per rack.
func (l *Layout) LocalPoolsPerRack() int {
	return l.LocalPoolsPerEnclosure() * l.Topo.EnclosuresPerRack
}

// TotalLocalPools returns the system-wide local pool count.
func (l *Layout) TotalLocalPools() int {
	return l.LocalPoolsPerRack() * l.Topo.Racks
}

// PoolOfDisk maps a flat disk index to its local pool index.
// Pool indices are dense in [0, TotalLocalPools) ordered by
// (rack, enclosure, pool-within-enclosure).
func (l *Layout) PoolOfDisk(diskIdx int) int {
	encl := diskIdx / l.Topo.DisksPerEnclosure
	within := diskIdx % l.Topo.DisksPerEnclosure
	return encl*l.LocalPoolsPerEnclosure() + within/l.LocalPoolSize()
}

// RackOfPool returns the rack that hosts local pool p.
func (l *Layout) RackOfPool(p int) int { return p / l.LocalPoolsPerRack() }

// PositionOfPool returns the pool's position within its rack,
// in [0, LocalPoolsPerRack). Network-clustered schemes align pools of the
// same position across the racks of a rack group into one network pool.
func (l *Layout) PositionOfPool(p int) int { return p % l.LocalPoolsPerRack() }

// RackGroupOfRack returns the network-Cp rack group of a rack
// (groups of kn+pn consecutive racks). Only meaningful for network-C
// schemes.
func (l *Layout) RackGroupOfRack(rack int) int { return rack / l.Params.NetworkWidth() }

// NetworkPoolOf identifies the network pool of a local pool for
// network-clustered schemes: pools at the same position within the racks
// of the same rack group. Returns a dense index.
func (l *Layout) NetworkPoolOf(p int) int {
	group := l.RackGroupOfRack(l.RackOfPool(p))
	return group*l.LocalPoolsPerRack() + l.PositionOfPool(p)
}

// TotalNetworkPools returns the network pool count for network-C schemes,
// or 1 for network-D schemes (the whole system is one pool).
func (l *Layout) TotalNetworkPools() int {
	if l.Scheme.Network == Declustered {
		return 1
	}
	return (l.Topo.Racks / l.Params.NetworkWidth()) * l.LocalPoolsPerRack()
}

// LocalStripesPerPool returns the number of local stripes one local pool
// holds at true chunk granularity: poolBytes / (localWidth · chunkSize).
func (l *Layout) LocalStripesPerPool() float64 {
	poolBytes := float64(l.LocalPoolSize()) * l.Topo.DiskCapacityBytes
	return poolBytes / (float64(l.Params.LocalWidth()) * l.Topo.ChunkSizeBytes)
}

// TotalNetworkStripes returns the system-wide network stripe count at true
// chunk granularity: every local stripe belongs to exactly one network
// stripe of kn+pn local stripes.
func (l *Layout) TotalNetworkStripes() float64 {
	totalLocalStripes := l.LocalStripesPerPool() * float64(l.TotalLocalPools())
	return totalLocalStripes / float64(l.Params.NetworkWidth())
}

// LocalPoolDataBytes returns the bytes stored in one local pool (including
// parity), the amount R_ALL must move to rebuild it.
func (l *Layout) LocalPoolDataBytes() float64 {
	return float64(l.LocalPoolSize()) * l.Topo.DiskCapacityBytes
}

// DeclusteredStripes generates a pseudorandom declustered layout: stripes
// of the given width over a pool of poolSize disks, each stripe on width
// distinct disks, approximately balancing chunks per disk. It is flat:
// stripe s is on disks out[s*width : (s+1)*width]. The layout is
// deterministic for a given seed, and dealing a stripe allocates nothing.
func DeclusteredStripes(poolSize, width, stripes int, seed int64) ([]int32, error) {
	if width > poolSize {
		return nil, fmt.Errorf("placement: stripe width %d exceeds pool size %d", width, poolSize)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, stripes*width)
	// Balanced declustering: repeatedly deal shuffled disk permutations
	// into stripes so per-disk chunk counts differ by at most one. The
	// deck is deck[:n], dealt from the top; stripe s stamps its disks s.
	deck, mark, n := make([]int32, poolSize), make([]int, poolSize), 0
	for s := 1; s <= stripes; s++ {
		for len(out) < s*width {
			if n == 0 {
				for j := range deck {
					deck[j] = int32(j)
				}
				n = poolSize
				rng.Shuffle(poolSize, func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			n--
			d := deck[n]
			if mark[d] == s {
				// Put the duplicate back at the bottom and draw a
				// different disk uniformly from the unused ones.
				copy(deck[1:n+1], deck[:n])
				deck[0] = d
				n++
				d = int32(rng.Intn(poolSize))
				for mark[d] == s {
					d = int32(rng.Intn(poolSize))
				}
			}
			mark[d] = s
			out = append(out, d)
		}
	}
	return out, nil
}

// ClusteredStripes generates the trivial clustered layout, flat like
// DeclusteredStripes': every stripe is disks 0 … width−1 (poolSize == width).
func ClusteredStripes(poolSize, width, stripes int) ([]int32, error) {
	if width != poolSize {
		return nil, fmt.Errorf("placement: clustered pool size %d must equal width %d", poolSize, width)
	}
	out := make([]int32, stripes*width)
	for i := range out {
		out[i] = int32(i % width)
	}
	return out, nil
}
