package poolsim

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"mlec/internal/sim"
)

// refPool is Pool as it was before the repairable-stripe index and the
// bit-sliced state: a lost-member mask and a lost count per stripe, a
// lost-chunk count per disk, mutated chunk by chunk, with NextBatch
// finding the top priority by two full scans and a member walk per stripe
// (detectedLost). It shares the pool's immutable stripe → disk layout
// and is the oracle for TestIndexMatchesReference and
// FuzzPoolMatchesReference.
type refPool struct {
	p *Pool // layout and Cfg only

	lostMask    []uint64
	lostCount   []uint8
	state       []diskState
	diskLost    []int
	failedCount int
	detected    int
}

func newRefPool(p *Pool) *refPool {
	return &refPool{
		p:         p,
		lostMask:  make([]uint64, p.Cfg.Stripes()),
		lostCount: make([]uint8, p.Cfg.Stripes()),
		state:     make([]diskState, p.Cfg.Disks),
		diskLost:  make([]int, p.Cfg.Disks),
	}
}

// members returns stripe s's disks.
func (p *Pool) members(s int) []int32 {
	return p.stripeDisk[s*p.Cfg.Width : (s+1)*p.Cfg.Width]
}

func (r *refPool) failDisk(d int) (newlyLost int) {
	r.state[d] = diskFailedUndetected
	r.failedCount++
	pl := uint8(r.p.Cfg.Parity)
	// Find d's chunks in the stripe → disk list, not in the pool's
	// per-disk stripe sets, so those are checked too.
	for s := range r.lostMask {
		for m, dm := range r.p.members(s) {
			if int(dm) != d || r.lostMask[s]&(1<<uint(m)) != 0 {
				continue
			}
			r.lostMask[s] |= 1 << uint(m)
			r.lostCount[s]++
			r.diskLost[d]++
			if r.lostCount[s] == pl+1 {
				newlyLost++
			}
		}
	}
	return newlyLost
}

func (r *refPool) detectDisk(d int) {
	if r.state[d] != diskFailedUndetected {
		return
	}
	r.state[d] = diskRepairing
	r.detected++
}

func (r *refPool) nextBatch(b *repairBatch) bool {
	if r.detected == 0 {
		return false
	}
	best := 0
	for s, c := range r.lostCount {
		if int(c) > best && r.detectedLost(s) > 0 {
			best = int(c)
		}
	}
	if best == 0 {
		return false
	}
	b.stripes = b.stripes[:0]
	chunks := 0
	maxStripes := r.p.Cfg.batchCap()
	for s, c := range r.lostCount {
		if int(c) == best {
			if dl := r.detectedLost(s); dl > 0 {
				b.stripes = append(b.stripes, s)
				chunks += dl
				if len(b.stripes) >= maxStripes {
					break
				}
			}
		}
	}
	b.priority = best
	b.volumeBytes = float64(chunks) * r.p.Cfg.SegmentBytes()
	return true
}

func (r *refPool) detectedLost(s int) int {
	n := 0
	mask := r.lostMask[s]
	for m, d := range r.p.members(s) {
		if mask&(1<<uint(m)) != 0 && r.state[d] == diskRepairing {
			n++
		}
	}
	return n
}

func (r *refPool) healBatch(b *repairBatch) []int {
	var healed []int
	for _, s := range b.stripes {
		mask := r.lostMask[s]
		for m, d := range r.p.members(s) {
			bit := uint64(1) << uint(m)
			if mask&bit == 0 || r.state[d] != diskRepairing {
				continue
			}
			r.lostMask[s] &^= bit
			r.lostCount[s]--
			r.diskLost[d]--
			if r.diskLost[d] == 0 {
				r.state[d] = diskHealthy
				r.failedCount--
				r.detected--
				healed = append(healed, int(d))
			}
		}
	}
	return healed
}

func (r *refPool) healAll() {
	clear(r.lostMask)
	clear(r.lostCount)
	clear(r.state)
	clear(r.diskLost)
	r.failedCount, r.detected = 0, 0
}

func (r *refPool) healStripeChunks(s, n int) (healedDisks []int) {
	mask := r.lostMask[s]
	for m, d := range r.p.members(s) {
		if n == 0 {
			break
		}
		bit := uint64(1) << uint(m)
		if mask&bit == 0 {
			continue
		}
		r.lostMask[s] &^= bit
		r.lostCount[s]--
		r.diskLost[d]--
		n--
		if r.diskLost[d] == 0 {
			if r.state[d] == diskRepairing {
				r.detected--
			}
			r.state[d] = diskHealthy
			r.failedCount--
			healedDisks = append(healedDisks, int(d))
		}
	}
	return healedDisks
}

// restore is Machine.Restore's pool half, walking every member of every
// listed stripe; the snapshot is well-formed here.
func (r *refPool) restore(s Snapshot) {
	r.healAll()
	for _, dj := range s.Disks {
		r.state[dj.D] = diskState(dj.S)
		r.failedCount++
		if r.state[dj.D] == diskRepairing {
			r.detected++
		}
	}
	for _, tj := range s.Stripes {
		r.lostMask[tj.S] = tj.M
		r.lostCount[tj.S] = uint8(bits.OnesCount64(tj.M))
		for i, d := range r.p.members(tj.S) {
			if tj.M&(1<<uint(i)) != 0 {
				r.diskLost[d]++
			}
		}
	}
}

// refHarness drives a pool, its machine and the reference through the
// same mutations and checks them against each other after every one.
type refHarness struct {
	t     testing.TB
	pool  *Pool
	ref   *refPool
	m     *Machine
	b, rb repairBatch
}

func newRefHarness(t testing.TB, cfg Config, seed int64) *refHarness {
	pool, err := NewPool(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refHarness{t: t, pool: pool, ref: newRefPool(pool), m: NewMachine(pool, sim.New())}
}

func (h *refHarness) fail(d int) {
	if got, want := h.pool.FailDisk(d), h.ref.failDisk(d); got != want {
		h.t.Fatalf("FailDisk(%d) lost %d stripes, reference %d", d, got, want)
	}
}

func (h *refHarness) detect(d int) {
	h.pool.DetectDisk(d)
	h.ref.detectDisk(d)
}

// batch plans and heals one batch on both sides.
func (h *refHarness) batch() bool {
	ok, rok := h.pool.NextBatch(&h.b), h.ref.nextBatch(&h.rb)
	if ok != rok {
		h.t.Fatalf("NextBatch %v, reference %v", ok, rok)
	}
	if ok {
		if got, want := h.pool.HealBatch(&h.b), h.ref.healBatch(&h.rb); !sameInts(got, want) {
			h.t.Fatalf("HealBatch healed %v, reference %v", got, want)
		}
	}
	return ok
}

func (h *refHarness) healStripe(s, n int) {
	if got, want := h.pool.HealStripeChunks(s, n), h.ref.healStripeChunks(s, n); got != len(want) {
		h.t.Fatalf("HealStripeChunks(%d, %d) healed %d disks, reference %v", s, n, got, want)
	}
}

func (h *refHarness) healAll() {
	h.pool.HealAll()
	h.ref.healAll()
}

func (h *refHarness) roundTrip() {
	snap := h.m.Snapshot()
	if err := h.m.Restore(snap); err != nil {
		h.t.Fatal(err)
	}
	h.ref.restore(snap)
}

// allDown fails every disk, detects them all and drains the repairs: the
// counts reach the stripe width, every plane is used, and the last
// batches return many disks at once.
func (h *refHarness) allDown() {
	for d := range h.pool.Cfg.Disks {
		h.fail(d)
	}
	h.check()
	for d := range h.pool.Cfg.Disks {
		h.detect(d)
	}
	h.check()
	for h.batch() {
		h.check()
	}
	if !h.pool.Healthy() {
		h.t.Fatal("pool not healthy after draining every batch")
	}
}

// check compares the pool with the reference: the per-stripe masks and
// counts and the per-disk lost counts derived from the bit-sliced state,
// the disk states and down list, the repairable set against a recount
// from the reference, the answers derived from the counts, and the next
// batch (stripes, order, priority, bytes). Every set's bits past the last
// stripe must be zero.
func (h *refHarness) check() {
	t, p, r := h.t, h.pool, h.ref
	t.Helper()
	stripes := p.Cfg.Stripes()
	var tail uint64 // the last word's bits past the last stripe
	if stripes&63 != 0 {
		tail = ^uint64(0) << uint(stripes&63)
	}
	lastWord := func(set []uint64) uint64 { return set[len(set)-1] }
	for d := range p.Cfg.Disks {
		if lastWord(p.set(p.lost, d))&tail != 0 || lastWord(p.set(p.diskSet, d))&tail != 0 {
			t.Errorf("disk %d: a stripe set has bits past stripe %d", d, stripes)
		}
	}
	for k, x := range p.count[(p.words-1)*p.planes:] {
		if x&tail != 0 {
			t.Errorf("count plane %d has bits past stripe %d", k, stripes)
		}
	}
	if lastWord(p.repairable)&tail != 0 {
		t.Errorf("repairable set has bits past stripe %d", stripes)
	}
	prof, lostStripes := make([]int, p.Cfg.Width+1), 0
	for s := range stripes {
		if got := p.stripeMask(s); got != r.lostMask[s] {
			t.Errorf("stripe %d: mask %#x, reference %#x", s, got, r.lostMask[s])
		}
		c := int(r.lostCount[s])
		if got := p.StripeLostCount(s); got != c {
			t.Errorf("stripe %d: count %d, reference %d", s, got, c)
		}
		if in, want := p.repairable[s>>6]>>uint(s&63)&1 != 0, r.detectedLost(s) > 0; in != want {
			t.Errorf("stripe %d: repairable %v, recount %v", s, in, want)
		}
		if c > 0 {
			prof[c]++
		}
		if c > p.Cfg.Parity {
			lostStripes++
		}
	}
	var down []int32
	for d := range p.Cfg.Disks {
		if p.state[d] != r.state[d] {
			t.Errorf("disk %d: state %d, reference %d", d, p.state[d], r.state[d])
		}
		if n := setSize(p.set(p.lost, d)); n != r.diskLost[d] {
			t.Errorf("disk %d: %d lost chunks, reference %d", d, n, r.diskLost[d])
		}
		if p.state[d] != diskHealthy {
			down = append(down, int32(d))
		}
	}
	if len(down) != len(p.down) || len(down) > 0 && !reflect.DeepEqual(down, p.down) {
		t.Errorf("down list %v, want %v", p.down, down)
	}
	if p.FailedDisks() != r.failedCount || p.DetectedDisks() != r.detected {
		t.Errorf("%d failed, %d detected; reference %d, %d", p.FailedDisks(), p.DetectedDisks(), r.failedCount, r.detected)
	}
	if got := p.LostStripes(); got != lostStripes {
		t.Errorf("LostStripes %d, recount %d", got, lostStripes)
	}
	if got := p.Profile(); !reflect.DeepEqual(got, prof) {
		t.Errorf("Profile %v, recount %v", got, prof)
	}
	ok, rok := p.NextBatch(&h.b), r.nextBatch(&h.rb)
	if ok != rok || ok && (!sameInts(h.b.stripes, h.rb.stripes) || h.b.priority != h.rb.priority || h.b.volumeBytes != h.rb.volumeBytes) {
		t.Errorf("NextBatch %v %v p%d %g B, reference %v %v p%d %g B",
			ok, h.b.stripes, h.b.priority, h.b.volumeBytes, rok, h.rb.stripes, h.rb.priority, h.rb.volumeBytes)
	}
}

// stripeMask derives stripe s's lost-member mask from the disks' lost sets.
func (p *Pool) stripeMask(s int) (mask uint64) {
	for m, d := range p.members(s) {
		if p.lost[int(d)*p.words+s>>6]>>uint(s&63)&1 != 0 {
			mask |= 1 << uint(m)
		}
	}
	return mask
}

func setSize(set []uint64) (n int) {
	for _, x := range set {
		n += bits.OnesCount64(x)
	}
	return n
}

func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// referenceConfigs are the pools the reference tests run: clustered and
// declustered, stripe counts that fill their last word (64, 128) and
// that do not (144, 60, 100, 3, 24), one-word pools, two of width 64,
// whose counts take all seven planes, and one whose batches take every
// stripe at the top priority, so that one batch often returns several
// disks.
func referenceConfigs() []Config {
	cp60 := paperCpConfig()
	cp60.SegmentsPerDisk = 60
	wide := Config{Disks: 64, Width: 64, Parity: 8, Clustered: true, SegmentsPerDisk: 100,
		DiskCapacityBytes: 1e12, DiskRepairBW: 5e6, DetectionDelayHours: 0.5}
	tinyWide := wide
	tinyWide.SegmentsPerDisk = 3
	wholeBatch := Config{Disks: 12, Width: 5, Parity: 2, SegmentsPerDisk: 10, MaxBatchStripes: 1000,
		DiskCapacityBytes: 1e12, DiskRepairBW: 5e6, DetectionDelayHours: 0.5}
	return []Config{hotConfig(true), hotConfig(false), paperDpConfig(24), cp60, wide, tinyWide, wholeBatch}
}

// TestIndexMatchesReference drives a pool and the reference through the
// same random sequences of every mutator — machine-style single
// failures, syssim's burst injection of several disks at once,
// detections, repair batches, network repair of a stripe's chunks, full
// heals and snapshot round trips — and, first, every disk of the pool
// down at once. After every step the two hold the same state, plan the
// same batch (stripes, order, priority, bytes) and heal the same disks
// in the same order.
func TestIndexMatchesReference(t *testing.T) {
	for _, cfg := range referenceConfigs() {
		seeds := int64(8)
		if testing.Short() || cfg.Width == 64 {
			seeds = 2
		}
		for seed := int64(1); seed <= seeds; seed++ {
			h := newRefHarness(t, cfg, seed)
			h.allDown()
			h.check()
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 2000; step++ {
				op := rng.Intn(100)
				switch pool := h.pool; {
				case op < 25 && pool.FailedDisks() < cfg.Parity+3:
					h.fail(pool.RandomHealthyDisk(rng))
				case op < 28 && pool.FailedDisks() < cfg.Disks/2:
					for n := 1 + rng.Intn(cfg.Parity+3); n > 0; n-- {
						h.fail(pool.RandomHealthyDisk(rng))
					}
				case op < 45 && pool.FailedDisks() > 0:
					h.detect(rng.Intn(cfg.Disks))
				case op < 85:
					h.batch()
				case op < 93:
					s := rng.Intn(cfg.Stripes())
					if c := pool.StripeLostCount(s); c > 0 {
						h.healStripe(s, 1+rng.Intn(c))
					}
				case op < 95:
					h.healAll()
				default:
					h.roundTrip()
				}
				h.check()
				if t.Failed() {
					t.Fatalf("%+v seed %d step %d (op %d)", cfg, seed, step, op)
				}
			}
		}
	}
}

// FuzzPoolMatchesReference runs op sequences decoded from the input
// against the reference: the first byte picks the pool, the second its
// layout seed, and each following pair of bytes is one op and its
// argument. Every op is legal in every state (a failure of a down disk
// is skipped), and the pool is checked after each.
func FuzzPoolMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 0, 5, 2, 3, 3, 0, 3, 0})
	f.Add([]byte{1, 7, 0, 1, 0, 2, 0, 9, 2, 1, 2, 9, 3, 0, 5, 40, 7, 0, 3, 0})
	f.Add([]byte{2, 3, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0, 2, 4, 3, 0, 6, 0, 0, 5})
	f.Add([]byte{5, 1, 0, 1, 0, 2, 0, 3, 2, 2, 5, 1, 3, 0, 7, 0, 3, 0})
	f.Add([]byte{6, 50, 0, 3, 0, 8, 2, 3, 2, 8, 3, 0, 3, 0}) // one batch returns disks 8 and 3, in that order
	configs := referenceConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := configs[int(data[0])%len(configs)]
		h := newRefHarness(t, cfg, int64(data[1]))
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			switch d := arg % cfg.Disks; op {
			case 0, 1:
				if h.pool.DiskState(d) == int(diskHealthy) {
					h.fail(d)
				}
			case 2:
				h.detect(d)
			case 3, 4:
				h.batch()
			case 5:
				s := (arg * 7) % cfg.Stripes()
				if c := h.pool.StripeLostCount(s); c > 0 {
					h.healStripe(s, 1+arg%c)
				}
			case 6:
				h.healAll()
			default:
				h.roundTrip()
			}
			h.check()
			if t.Failed() {
				t.Fatalf("%+v: after op %d (%d, %d)", cfg, i/2-1, op, arg)
			}
		}
	})
}
