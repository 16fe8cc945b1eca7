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
	"math/bits"
	"math/rand"

	"mlec/internal/failure"
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

// ConfigFor is the stage-1 model of one local pool of l: its geometry, the
// topology's disk size and repair bandwidth, the paper's detection delay,
// and segmentsPerDisk stripe-chunks on every disk.
func ConfigFor(l *placement.Layout, segmentsPerDisk int) Config {
	return Config{
		Disks: l.LocalPoolSize(), Width: l.Params.LocalWidth(), Parity: l.Params.PL,
		Clustered:           l.Scheme.Local == placement.Clustered,
		SegmentsPerDisk:     segmentsPerDisk,
		DiskCapacityBytes:   l.Topo.DiskCapacityBytes,
		DiskRepairBW:        l.Topo.DiskRepairBandwidth(),
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
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

	layout // immutable after NewPool; every Clone shares it

	// lostMask[s] has bit m set when stripe s's chunk at member m is
	// currently lost (width ≤ 64 enforced at construction).
	lostMask  []uint64
	lostCount []uint8

	// The repairable-stripe index, kept by every mutator. detLost[s]
	// counts stripe s's lost chunks on detected (repairing) disks. Words
	// [c·words, (c+1)·words) of ready are the set of stripes with
	// lostCount c and detLost > 0 — the stripes a batch at priority c
	// would take, in ascending order — and readyN[c] is its size.
	detLost []uint8
	ready   []uint64
	readyN  []int32
	words   int

	state       []diskState
	diskLost    []int // lost chunks attributable to each disk
	failedCount int   // disks not healthy
	detected    int   // disks in diskRepairing
}

// layout is a pool's stripe geometry, built once by NewPool and never
// written again. Stripe s is on disks stripeDisk[s·width : (s+1)·width];
// disk d holds chunks of stripes diskStripe[diskStart[d]:diskStart[d+1]],
// ascending, at member index diskMember[i] of each.
type layout struct {
	stripeDisk, diskStart, diskStripe []int32
	diskMember                        []uint8
}

// NewPool builds the pool and its (seeded) stripe layout.
func NewPool(cfg Config, layoutSeed int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Width > 64 {
		return nil, fmt.Errorf("poolsim: stripe width %d exceeds 64 (lost-mask capacity)", cfg.Width)
	}
	var l layout
	var err error
	if cfg.Clustered {
		l.stripeDisk, err = placement.ClusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes())
	} else {
		l.stripeDisk, err = placement.DeclusteredStripes(cfg.Disks, cfg.Width, cfg.Stripes(), layoutSeed)
	}
	if err != nil {
		return nil, err
	}
	// Counting sort by disk: the prefix sums leave diskStart[d] at the end
	// of disk d's run, and dealing from the back walks it to the run's
	// start while each disk's stripes stay ascending.
	n, stripes := len(l.stripeDisk), cfg.Stripes()
	l.diskStart = make([]int32, cfg.Disks+1)
	for _, d := range l.stripeDisk {
		l.diskStart[d]++
	}
	for d := range cfg.Disks {
		l.diskStart[d+1] += l.diskStart[d]
	}
	l.diskStripe, l.diskMember = make([]int32, n), make([]uint8, n)
	for s := stripes - 1; s >= 0; s-- {
		for m := cfg.Width - 1; m >= 0; m-- {
			d := l.stripeDisk[s*cfg.Width+m]
			l.diskStart[d]--
			l.diskStripe[l.diskStart[d]], l.diskMember[l.diskStart[d]] = int32(s), uint8(m)
		}
	}
	words := (stripes + 63) / 64
	return &Pool{
		Cfg:       cfg,
		layout:    l,
		lostMask:  make([]uint64, stripes),
		lostCount: make([]uint8, stripes),
		detLost:   make([]uint8, stripes),
		ready:     make([]uint64, (cfg.Width+1)*words),
		readyN:    make([]int32, cfg.Width+1),
		words:     words,
		state:     make([]diskState, cfg.Disks),
		diskLost:  make([]int, cfg.Disks),
	}, nil
}

// Clone deep-copies the pool state (sharing the immutable layout).
func (p *Pool) Clone() *Pool {
	c := *p
	c.lostMask = append([]uint64(nil), p.lostMask...)
	c.lostCount = append([]uint8(nil), p.lostCount...)
	c.detLost = append([]uint8(nil), p.detLost...)
	c.ready = append([]uint64(nil), p.ready...)
	c.readyN = append([]int32(nil), p.readyN...)
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
	stripes, members := p.chunksOf(d)
	for i, s32 := range stripes {
		s, m := int(s32), members[i]
		if p.lostMask[s]&(1<<m) != 0 {
			continue // already lost (only possible via direct injection)
		}
		p.unindex(s)
		p.lostMask[s] |= 1 << m
		p.lostCount[s]++
		p.index(s)
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
	stripes, members := p.chunksOf(d)
	for i, s32 := range stripes {
		if s := int(s32); p.lostMask[s]&(1<<members[i]) != 0 {
			p.unindex(s)
			p.detLost[s]++
			p.index(s)
		}
	}
}

// chunksOf returns disk d's stripes, ascending, and its member index in each.
func (p *Pool) chunksOf(d int) (stripes []int32, members []uint8) {
	lo, hi := p.diskStart[d], p.diskStart[d+1]
	return p.diskStripe[lo:hi], p.diskMember[lo:hi:hi]
}

// unindex takes stripe s out of the repairable index before its counts
// change; index puts it back under its new priority afterwards. Both are
// no-ops for a stripe with no detected lost chunk.
func (p *Pool) unindex(s int) {
	if p.detLost[s] > 0 {
		c := int(p.lostCount[s])
		p.ready[c*p.words+s>>6] &^= 1 << uint(s&63)
		p.readyN[c]--
	}
}

func (p *Pool) index(s int) {
	if p.detLost[s] > 0 {
		c := int(p.lostCount[s])
		p.ready[c*p.words+s>>6] |= 1 << uint(s&63)
		p.readyN[c]++
	}
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
	best := 0
	for c := len(p.readyN) - 1; c > 0; c-- {
		if p.readyN[c] > 0 {
			best = c
			break
		}
	}
	if best == 0 {
		return false
	}
	stripes := b.stripes
	stripes = stripes[:0]
	chunks := 0
	maxStripes := p.Cfg.batchCap()
scan:
	for w, word := range p.ready[best*p.words : (best+1)*p.words] {
		for ; word != 0; word &= word - 1 {
			s := w<<6 + bits.TrailingZeros64(word)
			stripes = append(stripes, s)
			chunks += int(p.detLost[s])
			if len(stripes) >= maxStripes {
				break scan
			}
		}
	}
	b.stripes, b.priority = stripes, best
	b.volumeBytes = float64(chunks) * p.Cfg.SegmentBytes()
	return true
}

// HealBatch repairs the batch's detected lost chunks and returns the
// disks that became fully healthy again (in b's storage: good until b's
// next HealBatch).
func (p *Pool) HealBatch(b *repairBatch) []int {
	healed := b.healed
	healed = healed[:0]
	for _, s := range b.stripes {
		// Every detected lost chunk of s is rebuilt, so s leaves the
		// index for good: no index(s) afterwards.
		p.unindex(s)
		for mask := p.lostMask[s]; mask != 0; mask &= mask - 1 {
			m := bits.TrailingZeros64(mask)
			d := int(p.stripeDisk[s*p.Cfg.Width+m])
			if p.state[d] != diskRepairing {
				continue
			}
			p.lostMask[s] &^= 1 << uint(m)
			p.lostCount[s]--
			p.detLost[s]--
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
	clear(p.lostMask)
	clear(p.lostCount)
	clear(p.detLost)
	clear(p.ready)
	clear(p.readyN)
	clear(p.state)
	clear(p.diskLost)
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

// StripeLostCount returns stripe s's current lost-chunk count.
func (p *Pool) StripeLostCount(s int) int { return int(p.lostCount[s]) }

// HealStripeChunks rebuilds up to n of stripe s's lost chunks (network
// repair can restore chunks of undetected disks too — the network
// repairer has its own maps). Returns how many disks became fully
// healthy.
func (p *Pool) HealStripeChunks(s, n int) (healedDisks int) {
	p.unindex(s)
	for mask := p.lostMask[s]; mask != 0 && n > 0; mask &= mask - 1 {
		m := bits.TrailingZeros64(mask)
		d := int(p.stripeDisk[s*p.Cfg.Width+m])
		p.lostMask[s] &^= 1 << uint(m)
		p.lostCount[s]--
		if p.state[d] == diskRepairing {
			p.detLost[s]--
		}
		p.diskLost[d]--
		n--
		if p.diskLost[d] == 0 {
			if p.state[d] == diskRepairing {
				p.detected--
			}
			p.state[d] = diskHealthy
			p.failedCount--
			healedDisks++
		}
	}
	p.index(s)
	return healedDisks
}
