// Package poolsim simulates a single MLEC local pool at segment
// granularity: disks fail following a TTF distribution, failures are
// detected after a delay, and a priority repairer rebuilds the most
// damaged stripes first at the pool's (degraded) repair bandwidth.
//
// It supplies stage 1 of the paper's splitting methodology (§3): the rate
// at which a local pool becomes catastrophic (some stripe exceeds pl
// failed chunks — Figure 7) and state samples at those events, which the
// splitting package injects at the network level.
//
// Granularity: each disk holds SegmentsPerDisk stripe-chunks; stripes are
// pseudorandom width-subsets of the pool's disks (or the trivial spanning
// layout for clustered pools). Repair volumes scale to real bytes, so
// repair *times* match the full-resolution system while the combinatorial
// state stays small.
package poolsim

import (
	"fmt"
	"math/rand"

	"mlec/internal/placement"
)

// Config describes one local pool.
type Config struct {
	Disks     int  // pool size D
	Width     int  // stripe width kl+pl
	Parity    int  // pl
	Clustered bool // clustered (width == Disks) vs declustered layout

	SegmentsPerDisk   int     // sim granularity (chunks per disk)
	DiskCapacityBytes float64 // real bytes per disk
	DiskRepairBW      float64 // per-disk repair bandwidth, bytes/s

	DetectionDelayHours float64

	// MaxBatchStripes caps how many stripes one repair batch heals.
	// Interrupted batches restart from scratch, so smaller batches
	// reduce the restart pessimism at the cost of more events.
	// 0 selects the default of 5% of the pool's stripes.
	MaxBatchStripes int
}

// batchCap returns the effective repair batch size.
func (c Config) batchCap() int {
	if c.MaxBatchStripes > 0 {
		return c.MaxBatchStripes
	}
	n := c.Stripes() / 20
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Disks <= 0 || c.Width <= 1 || c.Parity < 0 || c.Parity >= c.Width:
		return fmt.Errorf("poolsim: bad geometry D=%d w=%d pl=%d", c.Disks, c.Width, c.Parity)
	case c.Clustered && c.Disks != c.Width:
		return fmt.Errorf("poolsim: clustered pool needs D == width, got %d != %d", c.Disks, c.Width)
	case !c.Clustered && c.Disks < c.Width:
		return fmt.Errorf("poolsim: declustered pool narrower than stripe")
	case c.SegmentsPerDisk <= 0:
		return fmt.Errorf("poolsim: SegmentsPerDisk = %d", c.SegmentsPerDisk)
	case c.DiskCapacityBytes <= 0 || c.DiskRepairBW <= 0:
		return fmt.Errorf("poolsim: bad capacity/bandwidth")
	case c.DetectionDelayHours < 0:
		return fmt.Errorf("poolsim: negative detection delay")
	}
	if c.Disks*c.SegmentsPerDisk%c.Width != 0 {
		return fmt.Errorf("poolsim: D·segments (%d) not divisible by width %d",
			c.Disks*c.SegmentsPerDisk, c.Width)
	}
	return nil
}

// KL returns the data-chunk count of the local code.
func (c Config) KL() int { return c.Width - c.Parity }

// SegmentBytes returns the real size one simulated chunk stands for.
func (c Config) SegmentBytes() float64 {
	return c.DiskCapacityBytes / float64(c.SegmentsPerDisk)
}

// Stripes returns the simulated stripe count.
func (c Config) Stripes() int { return c.Disks * c.SegmentsPerDisk / c.Width }

// RepairBW returns the pool's repair bandwidth (bytes/s of reconstructed
// data) with `failed` disks under repair, mirroring
// bwmodel.DegradedPoolRepairBandwidth.
func (c Config) RepairBW(failed int) float64 {
	if failed < 1 {
		failed = 1
	}
	if c.Clustered {
		// Spare writes bind (reads stay ahead while failed ≤ pl).
		return float64(failed) * c.DiskRepairBW
	}
	surv := c.Disks - failed
	if surv < c.KL() {
		surv = c.KL()
	}
	return float64(surv) * c.DiskRepairBW / float64(c.KL()+1)
}

// diskState tracks one disk's lifecycle.
type diskState uint8

const (
	diskHealthy diskState = iota
	diskFailedUndetected
	diskRepairing
)

// Pool is the mutable pool state. It contains no event-queue machinery;
// a Machine owns the clock and calls the mutators.
type Pool struct {
	Cfg Config

	stripeDisks  [][]int // stripe → member disk ids
	diskStripes  [][]int // disk → stripe ids it participates in
	memberOfDisk [][]int // parallel to diskStripes: member index within the stripe

	// lostMask[s] has bit m set when stripe s's chunk at member m is
	// currently lost (width ≤ 64 enforced at construction).
	lostMask  []uint64
	lostCount []uint8

	state       []diskState
	diskLost    []int // lost chunks attributable to each disk
	failedCount int   // disks not healthy
	detected    int   // disks in diskRepairing
}

// NewPool builds the pool and its (seeded) stripe layout.
func NewPool(cfg Config, layoutSeed int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Width > 64 {
		return nil, fmt.Errorf("poolsim: stripe width %d exceeds 64 (lost-mask capacity)", cfg.Width)
	}
	var layout [][]int
	var err error
	if cfg.Clustered {
		layout, err = placement.ClusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes())
	} else {
		layout, err = placement.DeclusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes(), layoutSeed)
	}
	if err != nil {
		return nil, err
	}
	p := &Pool{
		Cfg:          cfg,
		stripeDisks:  layout,
		diskStripes:  make([][]int, cfg.Disks),
		memberOfDisk: make([][]int, cfg.Disks),
		lostMask:     make([]uint64, len(layout)),
		lostCount:    make([]uint8, len(layout)),
		state:        make([]diskState, cfg.Disks),
		diskLost:     make([]int, cfg.Disks),
	}
	for s, disks := range layout {
		for m, d := range disks {
			p.diskStripes[d] = append(p.diskStripes[d], s)
			p.memberOfDisk[d] = append(p.memberOfDisk[d], m)
		}
	}
	return p, nil
}

// Clone deep-copies the pool state (sharing the immutable layout).
func (p *Pool) Clone() *Pool {
	c := *p
	c.lostMask = append([]uint64(nil), p.lostMask...)
	c.lostCount = append([]uint8(nil), p.lostCount...)
	c.state = append([]diskState(nil), p.state...)
	c.diskLost = append([]int(nil), p.diskLost...)
	return &c
}

// FailedDisks returns the number of disks that are failed or repairing.
func (p *Pool) FailedDisks() int { return p.failedCount }

// DetectedDisks returns the number of disks whose failure was detected.
func (p *Pool) DetectedDisks() int { return p.detected }

// Healthy reports whether every disk is healthy.
func (p *Pool) Healthy() bool { return p.failedCount == 0 }

// DiskState returns disk d's lifecycle state.
func (p *Pool) DiskState(d int) int { return int(p.state[d]) }

// FailDisk marks disk d failed (undetected) and returns the number of
// stripes that just became lost (> pl failed chunks) — a nonzero return
// is a catastrophic local pool failure.
func (p *Pool) FailDisk(d int) (newlyLost int) {
	if p.state[d] != diskHealthy {
		//lint:allow nakedpanic double-failing a disk is a simulator-state invariant violation, not recoverable input
		panic(fmt.Sprintf("poolsim: disk %d failed twice", d))
	}
	p.state[d] = diskFailedUndetected
	p.failedCount++
	pl := uint8(p.Cfg.Parity)
	for i, s := range p.diskStripes[d] {
		m := p.memberOfDisk[d][i]
		if p.lostMask[s]&(1<<uint(m)) != 0 {
			continue // already lost (only possible via direct injection)
		}
		p.lostMask[s] |= 1 << uint(m)
		p.lostCount[s]++
		p.diskLost[d]++
		if p.lostCount[s] == pl+1 {
			newlyLost++
		}
	}
	return newlyLost
}

// DetectDisk moves a failed disk into the repairing set.
func (p *Pool) DetectDisk(d int) {
	if p.state[d] != diskFailedUndetected {
		return
	}
	p.state[d] = diskRepairing
	p.detected++
}

// LostStripes returns the number of stripes currently beyond local
// recovery (> pl lost chunks).
func (p *Pool) LostStripes() int {
	n := 0
	pl := uint8(p.Cfg.Parity)
	for _, c := range p.lostCount {
		if c > pl {
			n++
		}
	}
	return n
}

// Profile returns the stripe damage histogram: counts of stripes by
// number of lost chunks (index = lost chunks; index 0 unused).
func (p *Pool) Profile() []int {
	prof := make([]int, p.Cfg.Width+1)
	for _, c := range p.lostCount {
		if c > 0 {
			prof[c]++
		}
	}
	return prof
}

// repairBatch describes the repairer's next unit of work: all repairable
// stripes at the current top priority. A batch is storage its owner
// reuses from one plan to the next.
type repairBatch struct {
	stripes  []int
	priority int
	// volumeBytes is the data to reconstruct: detected lost chunks.
	volumeBytes float64
	healed      []int // HealBatch's result
}

// NextBatch fills b with the highest-priority batch of repairable
// stripes (stripes whose lost chunks include at least one detected disk)
// and reports whether there is one. Priority is the stripe's total lost
// count.
func (p *Pool) NextBatch(b *repairBatch) bool {
	if p.detected == 0 {
		return false
	}
	best := 0
	for s, c := range p.lostCount {
		if int(c) > best && p.detectedLost(s) > 0 {
			best = int(c)
		}
	}
	if best == 0 {
		return false
	}
	stripes := b.stripes
	stripes = stripes[:0]
	chunks := 0
	maxStripes := p.Cfg.batchCap()
	for s, c := range p.lostCount {
		if int(c) == best {
			if dl := p.detectedLost(s); dl > 0 {
				stripes = append(stripes, s)
				chunks += dl
				if len(stripes) >= maxStripes {
					break
				}
			}
		}
	}
	b.stripes, b.priority = stripes, best
	b.volumeBytes = float64(chunks) * p.Cfg.SegmentBytes()
	return true
}

// detectedLost counts stripe s's lost chunks that belong to detected
// (repairing) disks.
func (p *Pool) detectedLost(s int) int {
	n := 0
	mask := p.lostMask[s]
	for m, d := range p.stripeDisks[s] {
		if mask&(1<<uint(m)) != 0 && p.state[d] == diskRepairing {
			n++
		}
	}
	return n
}

// HealBatch repairs the batch's detected lost chunks and returns the
// disks that became fully healthy again (in b's storage: good until b's
// next HealBatch).
func (p *Pool) HealBatch(b *repairBatch) []int {
	healed := b.healed
	healed = healed[:0]
	for _, s := range b.stripes {
		mask := p.lostMask[s]
		for m, d := range p.stripeDisks[s] {
			bit := uint64(1) << uint(m)
			if mask&bit == 0 || p.state[d] != diskRepairing {
				continue
			}
			p.lostMask[s] &^= bit
			p.lostCount[s]--
			p.diskLost[d]--
			if p.diskLost[d] == 0 {
				p.state[d] = diskHealthy
				p.failedCount--
				p.detected--
				healed = append(healed, d)
			}
		}
	}
	b.healed = healed
	return healed
}

// HealAll instantly restores the pool to pristine state (used after a
// catastrophic event is handed to the network level).
func (p *Pool) HealAll() {
	for s := range p.lostMask {
		p.lostMask[s] = 0
		p.lostCount[s] = 0
	}
	for d := range p.state {
		p.state[d] = diskHealthy
		p.diskLost[d] = 0
	}
	p.failedCount = 0
	p.detected = 0
}

// RandomHealthyDisk returns a uniformly random healthy disk id.
func (p *Pool) RandomHealthyDisk(rng *rand.Rand) int {
	if p.failedCount == p.Cfg.Disks {
		//lint:allow nakedpanic callers only ask while the pool has survivors; an empty pool is a simulator-state invariant violation
		panic("poolsim: no healthy disk")
	}
	for {
		d := rng.Intn(p.Cfg.Disks)
		if p.state[d] == diskHealthy {
			return d
		}
	}
}

// LostStripeIDs returns the ids of stripes currently beyond local
// recovery, for network-level repair bookkeeping.
func (p *Pool) LostStripeIDs() []int {
	var ids []int
	pl := uint8(p.Cfg.Parity)
	for s, c := range p.lostCount {
		if c > pl {
			ids = append(ids, s)
		}
	}
	return ids
}

// StripeLostCount returns stripe s's current lost-chunk count.
func (p *Pool) StripeLostCount(s int) int { return int(p.lostCount[s]) }

// HealStripeChunks rebuilds up to n of stripe s's lost chunks (network
// repair can restore chunks of undetected disks too — the network
// repairer has its own maps). Returns the disks that became fully
// healthy.
func (p *Pool) HealStripeChunks(s, n int) (healedDisks []int) {
	mask := p.lostMask[s]
	for m, d := range p.stripeDisks[s] {
		if n == 0 {
			break
		}
		bit := uint64(1) << uint(m)
		if mask&bit == 0 {
			continue
		}
		p.lostMask[s] &^= bit
		p.lostCount[s]--
		p.diskLost[d]--
		n--
		if p.diskLost[d] == 0 {
			if p.state[d] == diskRepairing {
				p.detected--
			}
			p.state[d] = diskHealthy
			p.failedCount--
			healedDisks = append(healedDisks, d)
		}
	}
	return healedDisks
}
