package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Tracker holds the set of in-flight progress tasks. Engines create
// tasks on the package-level Progress tracker; the -progress reporter
// renders them periodically to stderr.
type Tracker struct {
	mu sync.Mutex
	// guarded by mu
	tasks []*Task
}

// Progress is the process-wide tracker the engine drivers feed.
var Progress = &Tracker{}

// Task is one unit of tracked work: a splitting run, a batch sweep, a
// heatmap grid. Work counts are atomics so hot loops can tick them
// without locks; the note, where an engine describes its stage, is
// updated at stage boundaries under a mutex.
//
// The wall-clock start time lives here, inside obs — engines never
// read the clock themselves, which is what keeps the walltime analyzer
// clean outside this package.
type Task struct {
	tracker *Tracker // the tracker that started it; Finish removes it there
	name    string
	begun   time.Time

	done     atomic.Int64
	restored atomic.Int64 // part of done restored from a checkpoint, not run here
	goal     int64        // <= 0 means unknown; fixed at StartTask

	mu sync.Mutex
	// guarded by mu
	note string
}

// StartTask registers a new task with the tracker. goal is the target
// work count (pass 0 when unknown); the task reports done/goal, rate
// and ETA from it.
func (t *Tracker) StartTask(name string, goal int64) *Task {
	task := &Task{tracker: t, name: name, begun: time.Now(), goal: goal}
	t.mu.Lock()
	t.tasks = append(t.tasks, task)
	t.mu.Unlock()
	return task
}

// Finish deregisters the task from the tracker that started it.
func (task *Task) Finish() {
	t := task.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, cur := range t.tasks {
		if cur == task {
			t.tasks = append(t.tasks[:i], t.tasks[i+1:]...)
			return
		}
	}
}

// Add ticks the work counter; safe from any worker goroutine.
func (task *Task) Add(delta int64) { task.done.Add(delta) }

// SetDone seeds the work counter with v units restored from a
// checkpoint when a run resumes. They count toward done/goal, but not
// toward the rate, which covers only work done since StartTask.
func (task *Task) SetDone(v int64) {
	task.restored.Store(v)
	task.done.Store(v)
}

// SetNote attaches a free-form annotation rendered after the ETA.
func (task *Task) SetNote(s string) {
	task.mu.Lock()
	task.note = s
	task.mu.Unlock()
}

// TaskSnapshot is one rendered task state.
type TaskSnapshot struct {
	Name    string
	Done    int64
	Goal    int64 // <= 0 when unknown
	Elapsed time.Duration
	PerSec  float64       // work units run per wall second, restored work excluded
	ETA     time.Duration // < 0 when unknown
	Note    string
}

func (task *Task) snapshot(now time.Time) TaskSnapshot {
	task.mu.Lock()
	s := TaskSnapshot{Name: task.name, Note: task.note}
	task.mu.Unlock()
	s.Done = task.done.Load()
	s.Goal = task.goal
	s.Elapsed = now.Sub(task.begun)
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.PerSec = float64(s.Done-task.restored.Load()) / secs
	}
	s.ETA = -1
	if s.Goal > 0 && s.Done > 0 && s.Done < s.Goal && s.PerSec > 0 {
		s.ETA = time.Duration(float64(s.Goal-s.Done) / s.PerSec * float64(time.Second))
	}
	return s
}

// Snapshots returns the current tasks' snapshots in registration order.
func (t *Tracker) Snapshots() []TaskSnapshot {
	now := time.Now()
	t.mu.Lock()
	tasks := append([]*Task(nil), t.tasks...)
	t.mu.Unlock()
	out := make([]TaskSnapshot, 0, len(tasks))
	for _, task := range tasks {
		out = append(out, task.snapshot(now))
	}
	return out
}

// Render writes one line per active task plus a worker-liveness line
// sourced from the registry — the runctl pool and the engine drivers
// feed the same report.
func (t *Tracker) Render(w io.Writer, reg *Registry) {
	snaps := t.Snapshots()
	if len(snaps) == 0 {
		fmt.Fprintf(w, "progress: idle (workers live %d)\n", reg.Gauge("runctl_pool_workers_live").Value())
		return
	}
	for _, s := range snaps {
		line := fmt.Sprintf("progress: %s %d", s.Name, s.Done)
		if s.Goal > 0 {
			pct := 100 * float64(s.Done) / float64(s.Goal)
			line += fmt.Sprintf("/%d (%.1f%%)", s.Goal, pct)
		}
		if s.PerSec > 0 {
			line += fmt.Sprintf(" %s/s", formatShort(s.PerSec))
		}
		if s.ETA >= 0 {
			line += fmt.Sprintf(" eta %s", s.ETA.Round(time.Second))
		}
		if s.Note != "" {
			line += " " + s.Note
		}
		line += fmt.Sprintf(" (workers live %d)", reg.Gauge("runctl_pool_workers_live").Value())
		fmt.Fprintln(w, line)
	}
}

// formatShort renders a non-negative float compactly: 3 significant
// digits below 1000, k/M suffixes above.
func formatShort(v float64) string {
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return fmt.Sprint(v)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
