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
	"slices"

	"mlec/internal/failure"
	"mlec/internal/obs"
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
//
// The stripe state is bit-sliced: a stripe set is words machine words,
// stripe s at bit s&63 of word s>>6, and every bit past the last stripe
// is zero in every set. FailDisk, DetectDisk, NextBatch and HealBatch
// work a word at a time, in O(down disks × words × planes), and look up
// no chunk's disk or member but a healed disk's last.
type Pool struct {
	Cfg Config

	layout // immutable after NewPool; every Clone shares it

	// lost is one stripe set per disk, words apart: the stripes whose
	// chunk on that disk is lost. Only a down disk's set is non-empty.
	lost []uint64
	// count holds every stripe's lost-chunk count in planes bit planes,
	// word-major: bit k of stripe s's count is bit s&63 of
	// count[(s>>6)·planes + k].
	count []uint64
	// repairable is the set of stripes with a lost chunk on a detected
	// disk: the stripes a repair batch may take.
	repairable []uint64
	// batch is HealBatch's scratch, the set of the batch's stripes; it is
	// empty between calls.
	batch []uint64
	// down lists the disks that are not healthy, ascending.
	down []int32

	state         []diskState
	detected      int // disks in diskRepairing
	words, planes int

	batchCap     int     // Cfg.batchCap()
	segmentBytes float64 // Cfg.SegmentBytes()
}

// layout is a pool's stripe geometry, built once by NewPool and never
// written again. Stripe s is on disks stripeDisk[s·width : (s+1)·width];
// disk d holds a chunk of every stripe in diskSet[d·words : (d+1)·words].
type layout struct {
	stripeDisk []int32
	diskSet    []uint64
}

// dealsC counts the declustered layouts NewPool deals, the costly part
// of building a datacenter's pools: write-only, never read back.
var dealsC = obs.Default.Counter("poolsim_declustered_deals_total")

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
	stripes := cfg.Stripes()
	if cfg.Clustered {
		l.stripeDisk, err = placement.ClusteredStripes(cfg.Disks, cfg.Width, stripes)
	} else {
		l.stripeDisk, err = placement.DeclusteredStripes(cfg.Disks, cfg.Width, stripes, layoutSeed)
		dealsC.Inc()
	}
	if err != nil {
		return nil, err
	}
	words := (stripes + 63) / 64
	l.diskSet = make([]uint64, cfg.Disks*words)
	for s := range stripes {
		for _, d := range l.stripeDisk[s*cfg.Width : (s+1)*cfg.Width] {
			l.diskSet[int(d)*words+s>>6] |= 1 << uint(s&63)
		}
	}
	p := &Pool{Cfg: cfg, layout: l, words: words, planes: bits.Len(uint(cfg.Width)),
		batchCap: cfg.batchCap(), segmentBytes: cfg.SegmentBytes()}
	p.allocState()
	return p, nil
}

// allocState makes the pool's mutable state, pristine: the four kinds of
// stripe set in one allocation, the disk states and the down list.
func (p *Pool) allocState() {
	d, w := p.Cfg.Disks*p.words, p.planes*p.words
	sets := make([]uint64, d+w+2*p.words)
	p.lost, p.count = sets[:d:d], sets[d:d+w:d+w]
	p.repairable, p.batch = sets[d+w:d+w+p.words:d+w+p.words], sets[d+w+p.words:]
	p.state = make([]diskState, p.Cfg.Disks)
	p.down = make([]int32, 0, p.Cfg.Disks)
}

// Clone deep-copies the pool state (sharing the immutable layout).
func (p *Pool) Clone() *Pool {
	c := *p
	c.allocState()
	copy(c.lost, p.lost)
	copy(c.count, p.count)
	copy(c.repairable, p.repairable)
	copy(c.state, p.state)
	c.down = append(c.down, p.down...)
	return &c
}

// set returns disk d's stripe set in sets (p.lost or p.diskSet).
func (p *Pool) set(sets []uint64, d int) []uint64 {
	return sets[d*p.words : (d+1)*p.words : (d+1)*p.words]
}

// FailedDisks returns the number of disks that are failed or repairing.
func (p *Pool) FailedDisks() int { return len(p.down) }

// DetectedDisks returns the number of disks whose failure was detected.
func (p *Pool) DetectedDisks() int { return p.detected }

// Healthy reports whether every disk is healthy.
func (p *Pool) Healthy() bool { return len(p.down) == 0 }

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
	p.addDown(d)
	// A healthy disk has no lost chunk, so all of its chunks are new.
	lost := p.set(p.lost, d)
	copy(lost, p.set(p.diskSet, d))
	return addCount(p.count, p.planes, lost, p.Cfg.Parity+1)
}

// DetectDisk moves a failed disk into the repairing set.
func (p *Pool) DetectDisk(d int) {
	if p.state[d] != diskFailedUndetected {
		return
	}
	p.state[d] = diskRepairing
	p.detected++
	orInto(p.repairable, p.set(p.lost, d))
}

// addDown adds disk d, just taken out of service, to the down list
// (whose capacity, Disks, it never outgrows).
func (p *Pool) addDown(d int) {
	i, _ := slices.BinarySearch(p.down, int32(d))
	p.down = slices.Insert(p.down, i, int32(d))
}

// markHealthy returns down disk d, whose last lost chunk was just
// rebuilt, to service.
func (p *Pool) markHealthy(d int) {
	if p.state[d] == diskRepairing {
		p.detected--
	}
	p.state[d] = diskHealthy
	i := slices.Index(p.down, int32(d))
	p.down = slices.Delete(p.down, i, i+1)
}

// LostStripes returns the number of stripes currently beyond local
// recovery (> pl lost chunks).
func (p *Pool) LostStripes() (n int) {
	for w := range p.words {
		for x := p.damaged(w); x != 0; x &= x - 1 {
			if p.StripeLostCount(w<<6|bits.TrailingZeros64(x)) > p.Cfg.Parity {
				n++
			}
		}
	}
	return n
}

// damaged returns word w of the set of stripes with a lost chunk.
func (p *Pool) damaged(w int) (set uint64) {
	for _, x := range p.count[w*p.planes : (w+1)*p.planes] {
		set |= x
	}
	return set
}

// Profile returns the stripe damage histogram: counts of stripes by
// number of lost chunks (index = lost chunks; index 0 unused).
func (p *Pool) Profile() []int {
	prof := make([]int, p.Cfg.Width+1)
	for w := range p.words {
		for x := p.damaged(w); x != 0; x &= x - 1 {
			prof[p.StripeLostCount(w<<6|bits.TrailingZeros64(x))]++
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
	b.stripes, b.priority = topStripes(b.stripes, p.count, p.planes, p.repairable, p.batchCap)
	if b.priority == 0 {
		return false
	}
	// Every stripe of the batch has priority lost chunks; the detected
	// ones are what is left after the undetected disks' (usually none).
	chunks := b.priority * len(b.stripes)
	for _, d := range p.down {
		if p.state[d] == diskFailedUndetected {
			lost := p.set(p.lost, int(d))
			for _, s := range b.stripes {
				chunks -= int(lost[s>>6] >> uint(s&63) & 1)
			}
		}
	}
	b.volumeBytes = float64(chunks) * p.segmentBytes
	return true
}

// HealBatch repairs the batch's detected lost chunks and returns the
// disks that became fully healthy again (in b's storage: good until b's
// next HealBatch), in the order a stripe-by-stripe, member-by-member walk
// of the batch rebuilds their last chunks.
func (p *Pool) HealBatch(b *repairBatch) []int {
	// The batch as a stripe set, in the scratch (emptied again below).
	// Every detected lost chunk of it is rebuilt, so its stripes leave
	// the repairable set.
	for _, s := range b.stripes {
		p.batch[s>>6] |= 1 << uint(s&63)
	}
	for w, x := range p.batch {
		p.repairable[w] &^= x
	}
	// A healed disk is first held as the position of its last rebuilt
	// chunk, stripe·64 + member, which names it and orders it.
	healed := b.healed
	healed = healed[:0]
	for i := 0; i < len(p.down); i++ {
		d := int(p.down[i])
		if p.state[d] != diskRepairing {
			continue
		}
		lost := p.set(p.lost, d)
		last := heal(lost, p.count, p.planes, p.batch)
		if last < 0 || !empty(lost) {
			continue
		}
		p.markHealthy(d)
		i--
		healed = append(healed, last<<6|slices.Index(p.stripeDisk[last*p.Cfg.Width:(last+1)*p.Cfg.Width], int32(d)))
	}
	clear(p.batch)
	slices.Sort(healed)
	for i, at := range healed {
		healed[i] = int(p.stripeDisk[(at>>6)*p.Cfg.Width+at&63])
	}
	b.healed = healed
	return healed
}

// HealAll instantly restores the pool to pristine state (used after a
// catastrophic event is handed to the network level).
func (p *Pool) HealAll() {
	for _, d := range p.down {
		clear(p.set(p.lost, int(d)))
		p.state[d] = diskHealthy
	}
	p.down = p.down[:0]
	clear(p.count)
	clear(p.repairable)
	p.detected = 0
}

// RandomHealthyDisk returns a uniformly random healthy disk id.
func (p *Pool) RandomHealthyDisk(rng *rand.Rand) int {
	if len(p.down) == p.Cfg.Disks {
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
func (p *Pool) StripeLostCount(s int) int {
	c, w := 0, s>>6
	for k, x := range p.count[w*p.planes : (w+1)*p.planes] {
		c |= int(x>>uint(s&63)&1) << uint(k)
	}
	return c
}

// HealStripeChunks rebuilds up to n of stripe s's lost chunks, lowest
// member first (network repair can restore chunks of undetected disks
// too — the network repairer has its own maps). Returns how many disks
// became fully healthy.
func (p *Pool) HealStripeChunks(s, n int) (healedDisks int) {
	w, bit, repairable := s>>6, uint64(1)<<uint(s&63), false
	for _, d32 := range p.stripeDisk[s*p.Cfg.Width : (s+1)*p.Cfg.Width] {
		d := int(d32)
		lost := p.set(p.lost, d)
		switch {
		case lost[w]&bit == 0:
		case n == 0:
			repairable = repairable || p.state[d] == diskRepairing
		default:
			lost[w] &^= bit
			subOne(p.count[w*p.planes:(w+1)*p.planes], bit)
			n--
			if empty(lost) {
				p.markHealthy(d)
				healedDisks++
			}
		}
	}
	if repairable {
		p.repairable[w] |= bit
	} else {
		p.repairable[w] &^= bit
	}
	return healedDisks
}

// The word loops. Each walks a stripe set a word at a time and the count
// planes of that word beside it. The loop conditions on the lengths of
// count and lost never end a loop early; they let the compiler drop the
// bounds checks.

// addCount adds one to the count of every stripe in set and returns how
// many of them it brought to exactly reach (none, for a reach below 1).
//
//mlec:hot every disk failure of every driver
func addCount(count []uint64, planes int, set []uint64, reach int) (n int) {
	for w := 0; w < len(set) && planes >= 0 && planes <= len(count); w++ {
		pl := count[:planes]
		count = count[planes:]
		carry, at := set[w], set[w] // at: the stripes now at reach
		for k, x := range pl {
			pl[k], carry = x^carry, x&carry
			// Keep the stripes whose bit k is reach's: pl[k], or its
			// complement where reach's bit is 0.
			at &= pl[k] ^ (uint64(reach>>uint(k)&1) - 1)
		}
		n += bits.OnesCount64(at)
	}
	return n
}

// heal takes the stripes of batch out of lost and lowers their counts
// by one where they were in it, and returns the highest stripe it took,
// or -1 for none.
//
//mlec:hot every finished repair batch, once per detected disk
func heal(lost, count []uint64, planes int, batch []uint64) (last int) {
	last = -1
	for w := 0; w < len(batch) && w < len(lost) && planes >= 0 && planes <= len(count); w++ {
		pl := count[:planes]
		count = count[planes:]
		if h := lost[w] & batch[w]; h != 0 {
			lost[w] &^= h
			last = w<<6 | (63 - bits.LeadingZeros64(h))
			subOne(pl, h)
		}
	}
	return last
}

// subOne lowers by one the count of every stripe in h, given the planes
// of h's word.
//
//mlec:hot every rebuilt run of chunks, local or network
func subOne(pl []uint64, h uint64) {
	for k, x := range pl {
		pl[k], h = x^h, ^x&h
	}
}

// topStripes refills stripes with the stripes of set whose count is the
// highest among set's, ascending, at most limit of them, and returns them
// and that count (0 for an empty set). Each word's own top stripes come
// from a top-down search of its planes; a word whose top is below the
// best so far is skipped, one above it starts the list again.
//
//mlec:hot every repair plan
func topStripes(stripes []int, count []uint64, planes int, set []uint64, limit int) ([]int, int) {
	stripes = stripes[:0]
	best := 0
	for w := 0; w < len(set) && planes >= 0 && planes <= len(count); w++ {
		pl, c, v := count[:planes], set[w], 0
		count = count[planes:]
		for k := len(pl) - 1; k >= 0 && c != 0; k-- {
			if t := c & pl[k]; t != 0 {
				c, v = t, v|1<<uint(k)
			}
		}
		if v < best {
			continue
		} else if v > best {
			best, stripes = v, stripes[:0]
		}
		for ; c != 0 && len(stripes) < limit; c &= c - 1 {
			stripes = append(stripes, w<<6|bits.TrailingZeros64(c))
		}
	}
	return stripes, best
}

// orInto adds src's stripes to dst.
//
//mlec:hot every detection
func orInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i, x := range src {
		dst[i] |= x
	}
}

// empty reports whether set holds no stripe.
//
//mlec:hot every repair batch, once per detected disk
func empty(set []uint64) bool {
	for _, x := range set {
		if x != 0 {
			return false
		}
	}
	return true
}
