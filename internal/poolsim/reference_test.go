package poolsim

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"mlec/internal/sim"
)

// refPool is Pool as it was before the repairable-stripe index: the same
// state, mutated by the same rules, with NextBatch finding the top
// priority by two full scans and a member walk per stripe (detectedLost).
// It shares the pool's immutable layout and is the oracle for
// TestIndexMatchesReference.
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
		lostMask:  make([]uint64, len(p.lostMask)),
		lostCount: make([]uint8, len(p.lostCount)),
		state:     make([]diskState, len(p.state)),
		diskLost:  make([]int, len(p.diskLost)),
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
	// disk → stripe index, so the index is checked too.
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

// TestIndexMatchesReference drives a pool and the pre-index reference
// through the same random sequences of every mutator — machine-style
// single failures, syssim's burst injection of several disks at once,
// detections, repair batches, network repair of a stripe's chunks, full
// heals and snapshot round trips — on a clustered and a declustered pool.
// After every step the two hold the same state, plan the same batch
// (stripes, order, priority, bytes), heal the same disks in the same
// order, and the index agrees with a recount from the masks.
func TestIndexMatchesReference(t *testing.T) {
	for _, cfg := range []Config{hotConfig(true), hotConfig(false), paperDpConfig(24)} {
		for seed := int64(1); seed <= 8; seed++ {
			pool, err := NewPool(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPool(pool)
			m := NewMachine(pool, sim.New())
			rng := rand.New(rand.NewSource(seed))
			var b, rb repairBatch
			for step := 0; step < 2000; step++ {
				op := rng.Intn(100)
				switch {
				case op < 25 && pool.FailedDisks() < cfg.Parity+3:
					d := pool.RandomHealthyDisk(rng)
					if got, want := pool.FailDisk(d), ref.failDisk(d); got != want {
						t.Fatalf("%+v seed %d step %d: FailDisk(%d) lost %d stripes, reference %d", cfg, seed, step, d, got, want)
					}
				case op < 28 && pool.FailedDisks() < cfg.Disks/2:
					for n := 1 + rng.Intn(cfg.Parity+3); n > 0; n-- {
						d := pool.RandomHealthyDisk(rng)
						pool.FailDisk(d)
						ref.failDisk(d)
					}
				case op < 45 && pool.FailedDisks() > 0:
					d := rng.Intn(cfg.Disks)
					pool.DetectDisk(d)
					ref.detectDisk(d)
				case op < 85:
					ok, rok := pool.NextBatch(&b), ref.nextBatch(&rb)
					if ok != rok {
						t.Fatalf("%+v seed %d step %d: NextBatch %v, reference %v", cfg, seed, step, ok, rok)
					}
					if ok {
						if got, want := pool.HealBatch(&b), ref.healBatch(&rb); !sameInts(got, want) {
							t.Fatalf("%+v seed %d step %d: HealBatch healed %v, reference %v", cfg, seed, step, got, want)
						}
					}
				case op < 93:
					s := rng.Intn(len(pool.lostMask))
					if c := pool.StripeLostCount(s); c > 0 {
						n := 1 + rng.Intn(c)
						if got, want := pool.HealStripeChunks(s, n), ref.healStripeChunks(s, n); got != len(want) {
							t.Fatalf("%+v seed %d step %d: HealStripeChunks(%d, %d) healed %v, reference %v", cfg, seed, step, s, n, got, want)
						}
					}
				case op < 95:
					pool.HealAll()
					ref.healAll()
				default:
					snap := m.Snapshot()
					if err := m.Restore(snap); err != nil {
						t.Fatalf("%+v seed %d step %d: %v", cfg, seed, step, err)
					}
					ref.restore(snap)
				}
				checkAgainstReference(t, pool, ref, &b, &rb)
				if t.Failed() {
					t.Fatalf("%+v seed %d step %d (op %d)", cfg, seed, step, op)
				}
			}
		}
	}
}

func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

func checkAgainstReference(t *testing.T, p *Pool, r *refPool, b, rb *repairBatch) {
	t.Helper()
	if !reflect.DeepEqual(p.lostMask, r.lostMask) || !reflect.DeepEqual(p.lostCount, r.lostCount) ||
		!reflect.DeepEqual(p.state, r.state) || !reflect.DeepEqual(p.diskLost, r.diskLost) ||
		p.failedCount != r.failedCount || p.detected != r.detected {
		t.Error("pool state differs from the reference")
	}
	ok, rok := p.NextBatch(b), r.nextBatch(rb)
	if ok != rok || ok && (!sameInts(b.stripes, rb.stripes) || b.priority != rb.priority || b.volumeBytes != rb.volumeBytes) {
		t.Errorf("NextBatch %v %v p%d %g B, reference %v %v p%d %g B",
			ok, b.stripes, b.priority, b.volumeBytes, rok, rb.stripes, rb.priority, rb.volumeBytes)
	}
	n := make([]int32, len(p.readyN))
	for s := range p.lostMask {
		dl := r.detectedLost(s)
		if int(p.detLost[s]) != dl {
			t.Errorf("stripe %d: detLost %d, recount %d", s, p.detLost[s], dl)
		}
		for c := range p.readyN {
			in := p.ready[c*p.words+s>>6]&(1<<uint(s&63)) != 0
			if want := dl > 0 && c == int(p.lostCount[s]); in != want {
				t.Errorf("stripe %d: in priority-%d set %v, want %v", s, c, in, want)
			}
			if in {
				n[c]++
			}
		}
	}
	if !reflect.DeepEqual(n, p.readyN) {
		t.Errorf("readyN %v, recount %v", p.readyN, n)
	}
}
