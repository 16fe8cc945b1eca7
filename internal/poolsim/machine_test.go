package poolsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mlec/internal/failure"
	"mlec/internal/sim"
)

// tinyPool is a 4-disk clustered pool, pl = 1, whose disks rebuild in
// exactly one hour (sixteen batches of one stripe).
func tinyPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(Config{
		Disks: 4, Width: 4, Parity: 1, Clustered: true, SegmentsPerDisk: 16,
		DiskCapacityBytes: 3.6e9, DiskRepairBW: 1e6, DetectionDelayHours: 0.5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStaleDetectionIgnored: HealAll heals disks whose detection is
// still queued. When such a disk fails again before the old event fires,
// that event must not detect the new failure: disk 0 fails at 1.0 h,
// disk 1 at 1.1 h (catastrophe, pool healed), disk 0 again at 1.2 h, and
// must stay undetected until 1.7 h, not 1.5 h.
func TestStaleDetectionIgnored(t *testing.T) {
	pool := tinyPool(t)
	eng := sim.New()
	m := NewMachine(pool, eng)
	m.OnCat = m.HealAll
	for _, ev := range []failure.Event{{Disk: 0, TimeHours: 1.0}, {Disk: 1, TimeHours: 1.1}, {Disk: 0, TimeHours: 1.2}} {
		eng.Schedule(ev.TimeHours, func() { m.Fail(ev.Disk) })
	}
	eng.RunUntil(1.6)
	if got := pool.DiskState(0); got != int(diskFailedUndetected) {
		t.Errorf("t=1.6 h: disk 0 in state %d, want failed-undetected (%d): the first failure's detection fired for the second",
			got, diskFailedUndetected)
	}
	eng.RunUntil(1.75)
	if got := pool.DiskState(0); got != int(diskRepairing) {
		t.Errorf("t=1.75 h: disk 0 in state %d, want repairing (%d)", got, diskRepairing)
	}

	// The same through the replay driver, made visible by a fourth
	// failure: detected at 1.7 h, disk 0 is whole again at 2.7 h, so
	// disk 1 failing at 2.6 h is a second catastrophe; detected half an
	// hour early it would have been whole just after 2.5 h.
	trace := &failure.Trace{Events: []failure.Event{
		{Disk: 0, TimeHours: 1.0}, {Disk: 1, TimeHours: 1.1}, {Disk: 0, TimeHours: 1.2}, {Disk: 1, TimeHours: 2.6},
	}}
	stats, err := ReplayTrace(pool.Cfg, trace, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskFailures != 4 || stats.CatastrophicCount != 2 {
		t.Errorf("replay: %d failures, %d catastrophes, want 4 and 2", stats.DiskFailures, stats.CatastrophicCount)
	}
}

// TestSnapshotRestoreRoundTrip: Restore re-derives every counter the
// snapshot leaves out, and the restored machine snapshots back to the
// same thing with the same countdowns.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	pool, err := NewPool(hotConfig(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	m := NewMachine(pool, eng)
	for d, at := range []float64{0, 0.2, 0.75, 0.875} {
		eng.Schedule(at, func() { m.Fail(d) })
	}
	eng.RunUntil(1) // disks 0 and 1 detected and rebuilding, 2 and 3 not yet
	snap := m.Snapshot()
	if len(snap.Disks) != 4 || len(snap.Detect) != 2 || snap.Detect[0] != (snapDetect{D: 2, R: 0.25}) || snap.Detect[1] != (snapDetect{D: 3, R: 0.375}) {
		t.Fatalf("snapshot at t=1: disks %v, detect %v", snap.Disks, snap.Detect)
	}

	other := NewMachine(pool.Clone(), sim.New())
	other.Pool.FailDisk(9) // Restore starts from a pristine pool, whatever it finds
	if err := other.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.Pool, pool) {
		t.Error("restored pool differs from the pool snapshotted")
	}
	if again := other.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Errorf("restored machine snapshots to\n%+v, want\n%+v", again, snap)
	}
	if other.eng.Now() != 0 || other.repairEv == nil {
		t.Errorf("restored machine: clock %g, repair planned %v; want 0 and true", other.eng.Now(), other.repairEv != nil)
	}
	other.eng.RunUntil(0.3)
	if other.Pool.DiskState(2) != int(diskRepairing) || other.Pool.DiskState(3) != int(diskFailedUndetected) {
		t.Errorf("0.3 h after restore: disks 2, 3 in states %d, %d; want detected, undetected",
			other.Pool.DiskState(2), other.Pool.DiskState(3))
	}
}

// TestRestoreRejectsMalformed: Restore is the one place a snapshot from
// outside (a checkpoint file) is checked.
func TestRestoreRejectsMalformed(t *testing.T) {
	m := NewMachine(tinyPool(t), sim.New()) // 4 disks, 16 stripes of width 4
	good := Snapshot{
		Disks:   []snapDisk{{D: 1, S: uint8(diskRepairing)}, {D: 2, S: uint8(diskFailedUndetected)}},
		Stripes: []snapStripe{{S: 0, M: 0b0110}, {S: 3, M: 0b0100}},
		Detect:  []snapDetect{{D: 2, R: 0.25}},
	}
	bad := []struct {
		want string
		edit func(s *Snapshot)
	}{
		{"disk 4 out of range", func(s *Snapshot) { s.Disks[0].D = 4 }},
		{"disk -1 out of range", func(s *Snapshot) { s.Disks[0].D = -1 }},
		{"invalid state 0", func(s *Snapshot) { s.Disks[0].S = uint8(diskHealthy) }},
		{"invalid state 7", func(s *Snapshot) { s.Disks[0].S = 7 }},
		{"disk 2 listed twice", func(s *Snapshot) { s.Disks[0].D = 2 }},
		{"stripe 16 out of range", func(s *Snapshot) { s.Stripes[1].S = 16 }},
		{"exceeds width 4", func(s *Snapshot) { s.Stripes[0].M = 0b10010 }},
		{"stripe 0 listed twice", func(s *Snapshot) { s.Stripes[1].S = 0 }},
		{"healthy disk 0 owns lost chunks", func(s *Snapshot) { s.Stripes[1].M = 0b0101 }},
		{"disk 1 which is not failed-undetected", func(s *Snapshot) { s.Detect[0].D = 1 }},
		{"disk 9 which is not failed-undetected", func(s *Snapshot) { s.Detect[0].D = 9 }},
		{"invalid detect countdown -0.5", func(s *Snapshot) { s.Detect[0].R = -0.5 }},
		{"invalid detect countdown NaN", func(s *Snapshot) { s.Detect[0].R = math.NaN() }},
		{"disk 2 out of disk order", func(s *Snapshot) { s.Detect = append(s.Detect, s.Detect[0]) }},
	}
	for _, c := range bad {
		s := Snapshot{
			Disks:   append([]snapDisk(nil), good.Disks...),
			Stripes: append([]snapStripe(nil), good.Stripes...),
			Detect:  append([]snapDetect(nil), good.Detect...),
		}
		c.edit(&s)
		if err := m.Restore(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Restore error %v, want one naming %q", err, c.want)
		}
	}
	// A rejected snapshot leaves nothing behind that the next one trips on.
	if err := m.Restore(good); err != nil {
		t.Fatalf("well-formed snapshot rejected after malformed ones: %v", err)
	}
	if m.Pool.FailedDisks() != 2 || m.Pool.DetectedDisks() != 1 || m.Pool.StripeLostCount(0) != 2 {
		t.Errorf("restored: %d failed, %d detected, stripe 0 lost %d; want 2, 1, 2",
			m.Pool.FailedDisks(), m.Pool.DetectedDisks(), m.Pool.StripeLostCount(0))
	}
}
