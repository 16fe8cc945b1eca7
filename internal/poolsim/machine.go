package poolsim

import (
	"fmt"
	"math/bits"

	"mlec/internal/obs"
	"mlec/internal/sim"
)

// Machine is the paper's local-repair rule (§3) for one pool, written
// once: a disk fails; the failure is detected DetectionDelayHours later;
// the most damaged stripes are rebuilt first, a batch at a time, at the
// degraded pool bandwidth; whenever the detected set changes the batch in
// flight is abandoned and the plan made again. It schedules on the engine
// it is handed — its own for LongRun, trace replay and a splitting
// worker, the datacenter's for syssim. Drivers differ in where failures
// come from (they call Fail) and in the two callbacks. The order of the
// Engine.Schedule calls inside a transition is contract: DESIGN.md §17.
type Machine struct {
	Pool *Pool

	// OnHealed, when set, is handed the disks a finished batch returned
	// to service (often none), before the next batch is planned.
	OnHealed func(disks []int)
	// OnCat, when set, runs inside Fail when the failure pushed a stripe
	// beyond pl lost chunks, before detection is armed. A handler that
	// heals the pool leaves nothing to detect, and Fail arms nothing.
	OnCat func()

	// Trace, when set, is told of every repair batch's start and end as
	// "local" repairs of pool ID. Only for machines driven from one
	// goroutine (syssim): splitting workers run on every CPU and their
	// interleaving must not reach a trace.
	Trace *obs.Recorder
	ID    int

	eng       *sim.Engine
	repairEv  *sim.Event  // completion of the batch in flight
	batch     repairBatch // the batch repairEv completes
	batchDone func()      // m.finishBatch, bound once: a replan allocates no closure
	onDetect  []func()    // per disk, m.detect(d), bound once likewise
	timers    []detectTimer
}

// detectTimer is a disk's detection countdown: armed at one clock
// reading, due delay hours later. Both are kept so that Snapshot can
// state the time left exactly.
type detectTimer struct{ armed, delay float64 }

// NewMachine puts pool under the repair rule, scheduling on eng.
func NewMachine(pool *Pool, eng *sim.Engine) *Machine {
	m := &Machine{
		Pool:     pool,
		eng:      eng,
		onDetect: make([]func(), pool.Cfg.Disks),
		timers:   make([]detectTimer, pool.Cfg.Disks),
	}
	m.batchDone = m.finishBatch
	for d := range m.onDetect {
		m.onDetect[d] = func() { m.detect(d) }
	}
	return m
}

// Fail takes healthy disk d out of service now.
//
//mlec:hot every simulated disk failure of every driver
func (m *Machine) Fail(d int) {
	if m.Pool.FailDisk(d) > 0 && m.OnCat != nil {
		m.OnCat()
	}
	if m.Pool.state[d] == diskFailedUndetected {
		m.arm(d, m.Pool.Cfg.DetectionDelayHours)
	}
}

func (m *Machine) arm(d int, delay float64) {
	m.timers[d] = detectTimer{armed: m.eng.Now(), delay: delay}
	m.eng.Schedule(delay, m.onDetect[d])
}

// detect fires when a detection falls due. HealAll leaves the detections
// it overtook in the queue: if d has failed again since, its timer is the
// new failure's and not yet due, and this event is not for it.
//
//mlec:hot every detection of every driver
func (m *Machine) detect(d int) {
	if t := m.timers[d]; m.eng.Now() < t.armed+t.delay {
		return
	}
	m.Pool.DetectDisk(d)
	m.Replan()
}

// Replan abandons the batch in flight and schedules the completion of
// the current top-priority batch at the current bandwidth. A driver calls
// it after changing the pool itself (syssim's network repair).
//
//mlec:hot runs on every detection and every finished batch
func (m *Machine) Replan() {
	m.eng.Cancel(m.repairEv)
	m.repairEv = nil
	if !m.Pool.NextBatch(&m.batch) {
		return
	}
	bw := m.Pool.Cfg.RepairBW(m.Pool.DetectedDisks())
	m.traceBatch(obs.EvRepairStart)
	m.repairEv = m.eng.Schedule(m.batch.volumeBytes/bw/3600, m.batchDone)
}

//mlec:hot every finished repair batch of every driver
func (m *Machine) finishBatch() {
	m.repairEv = nil
	m.traceBatch(obs.EvRepairEnd)
	healed := m.Pool.HealBatch(&m.batch)
	if m.OnHealed != nil {
		m.OnHealed(healed)
	}
	m.Replan()
}

//mlec:cold trace emission: absent, or one atomic load, in every run that is not being traced
func (m *Machine) traceBatch(kind string) {
	if m.Trace != nil {
		m.Trace.Emit(obs.TraceEvent{T: m.eng.Now(), Kind: kind,
			Pool: m.ID, Method: "local", Bytes: m.batch.volumeBytes})
	}
}

// HealAll restores the pool to pristine state and drops the batch in
// flight: the network level has rebuilt the pool, or a driver starts it
// over.
func (m *Machine) HealAll() {
	m.Pool.HealAll()
	m.eng.Cancel(m.repairEv)
	m.repairEv = nil
}

// CatSample records the pool as it stands, for a driver's OnCat.
func (m *Machine) CatSample() CatSample {
	return CatSample{
		TimeHours:   m.eng.Now(),
		FailedDisks: m.Pool.FailedDisks(),
		LostStripes: m.Pool.LostStripes(),
		Profile:     m.Pool.Profile(),
	}
}

// Snapshot is a machine's state in the one form it is copied in: sparse,
// because the stripe layout is rebuilt from (Config, seed) and only
// deviations from the pristine pool need saying. It is the splitting
// estimator's level-entry state and, as JSON, its checkpoint's entries.
type Snapshot struct {
	// Disks lists the disks that are not healthy.
	Disks []snapDisk `json:"disks,omitempty"`
	// Stripes lists the stripes with a lost chunk and their lost members.
	Stripes []snapStripe `json:"stripes,omitempty"`
	// Detect lists the undetected failed disks and the hours until each
	// is detected, in disk order: Restore schedules them in this order,
	// so equal countdowns fire in it.
	Detect []snapDetect `json:"detect,omitempty"`
}

type snapDisk struct {
	D int   `json:"d"`
	S uint8 `json:"s"`
}

type snapStripe struct {
	S int    `json:"s"`
	M uint64 `json:"m"`
}

type snapDetect struct {
	D int     `json:"d"`
	R float64 `json:"r"`
}

// Snapshot captures the machine now. Repair progress is not part of it:
// a restored machine starts its top batch afresh, as every replan does.
func (m *Machine) Snapshot() Snapshot {
	var s Snapshot
	now := m.eng.Now()
	for d, st := range m.Pool.state {
		if st == diskHealthy {
			continue
		}
		s.Disks = append(s.Disks, snapDisk{D: d, S: uint8(st)})
		if st == diskFailedUndetected {
			// delay − elapsed, not (armed + delay) − now: a disk that
			// failed this instant has exactly its delay left, which the
			// second form need not round back to, and the next level's
			// event times are built on this number.
			t := m.timers[d]
			s.Detect = append(s.Detect, snapDetect{D: d, R: t.delay - (now - t.armed)})
		}
	}
	for st, mask := range m.Pool.lostMask {
		if mask != 0 {
			s.Stripes = append(s.Stripes, snapStripe{S: st, M: mask})
		}
	}
	return s
}

// Restore rewinds the machine to s at time 0 on an emptied engine (so
// only a machine with an engine to itself): s is replayed onto a pristine
// pool, the redundant counters re-derived from the masks, the detections
// scheduled in the order listed, then the repair plan. Every snapshot
// comes through here — each trajectory's entry, each entry of a loaded
// checkpoint — so nothing is trusted: ids out of range, mask bits beyond
// the stripe width, contradictory states and countdowns that are not
// non-negative numbers are errors, after which the machine holds no
// usable state until a Restore succeeds.
func (m *Machine) Restore(s Snapshot) error {
	p, cfg := m.Pool, m.Pool.Cfg
	p.HealAll()
	m.eng.Reset()
	m.repairEv = nil
	for _, dj := range s.Disks {
		if dj.D < 0 || dj.D >= cfg.Disks {
			return fmt.Errorf("disk %d out of range", dj.D)
		}
		st := diskState(dj.S)
		if st != diskFailedUndetected && st != diskRepairing {
			return fmt.Errorf("disk %d has invalid state %d", dj.D, dj.S)
		}
		if p.state[dj.D] != diskHealthy {
			return fmt.Errorf("disk %d listed twice", dj.D)
		}
		p.state[dj.D] = st
		p.failedCount++
		if st == diskRepairing {
			p.detected++
		}
	}
	for _, tj := range s.Stripes {
		if tj.S < 0 || tj.S >= len(p.lostMask) {
			return fmt.Errorf("stripe %d out of range", tj.S)
		}
		if cfg.Width < 64 && tj.M>>uint(cfg.Width) != 0 {
			return fmt.Errorf("stripe %d mask %#x exceeds width %d", tj.S, tj.M, cfg.Width)
		}
		if p.lostMask[tj.S] != 0 {
			return fmt.Errorf("stripe %d listed twice", tj.S)
		}
		p.lostMask[tj.S] = tj.M
		p.lostCount[tj.S] = uint8(bits.OnesCount64(tj.M))
		for i, d := range p.stripeDisks[tj.S] {
			if tj.M&(1<<uint(i)) != 0 {
				p.diskLost[d]++
			}
		}
	}
	for d, lost := range p.diskLost {
		if lost > 0 && p.state[d] == diskHealthy {
			return fmt.Errorf("healthy disk %d owns lost chunks", d)
		}
	}
	last := -1
	for _, dj := range s.Detect {
		if dj.D < 0 || dj.D >= cfg.Disks || p.state[dj.D] != diskFailedUndetected {
			return fmt.Errorf("detect countdown for disk %d which is not failed-undetected", dj.D)
		}
		if !(dj.R >= 0) {
			return fmt.Errorf("disk %d has invalid detect countdown %g", dj.D, dj.R)
		}
		if dj.D <= last {
			return fmt.Errorf("detect countdown for disk %d out of disk order", dj.D)
		}
		last = dj.D
		m.arm(dj.D, dj.R)
	}
	m.Replan()
	return nil
}
