package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestProgressTaskLifecycle(t *testing.T) {
	tr := &Tracker{}
	task := tr.StartTask("unit.test", 100)
	defer task.Finish()
	task.Add(25)
	task.SetLevel(2, 6)
	task.SetOccupancy(0.4)
	task.SetCIWidth(0.01)
	task.SetNote("warming")
	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Name != "unit.test" || s.Done != 25 || s.Goal != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Level != 2 || s.MaxLevel != 6 || s.Occupancy != 0.4 || s.CIWidth != 0.01 || s.Note != "warming" {
		t.Fatalf("snapshot detail %+v", s)
	}
}

// TestFinishRemovesFromItsTracker finishes a task started on a tracker
// other than Progress: it must leave that tracker.
func TestFinishRemovesFromItsTracker(t *testing.T) {
	tr := &Tracker{}
	tr.StartTask("local.test", 10).Finish()
	if got := tr.Snapshots(); len(got) != 0 {
		t.Fatalf("tracker keeps %d snapshots after Finish", len(got))
	}
}

func TestProgressRender(t *testing.T) {
	tr := &Tracker{}
	reg := NewRegistry()
	reg.Gauge("runctl_pool_workers_live").Set(4)

	var idle bytes.Buffer
	tr.Render(&idle, reg)
	if !strings.Contains(idle.String(), "idle") || !strings.Contains(idle.String(), "workers live 4") {
		t.Fatalf("idle render %q", idle.String())
	}

	task := tr.StartTask("render.test", 10)
	task.Add(5)
	task.SetLevel(1, 3)
	var out bytes.Buffer
	tr.Render(&out, reg)
	line := out.String()
	for _, frag := range []string{"render.test", "5/10", "50.0%", "level 1/3", "workers live 4"} {
		if !strings.Contains(line, frag) {
			t.Errorf("render %q missing %q", line, frag)
		}
	}
	task.Finish()
}

// TestTaskConcurrentUpdates drives one task from several workers while
// the reporter renders it, the way a splitting run and -progress share
// a task. Each setter gets two goroutines of its own, so no other
// setter's lock orders their writes: under -race this is the task's
// data-race certificate.
func TestTaskConcurrentUpdates(t *testing.T) {
	const each = 200
	tr := &Tracker{}
	task := tr.StartTask("concurrent.test", 2*each)
	setters := []func(i int){
		func(i int) { task.SetLevel(i, each) },
		func(i int) { task.SetOccupancy(0.5) },
		func(i int) { task.SetCIWidth(0.1) },
		func(i int) { task.SetNote("worker") },
		func(i int) { task.Add(1) },
		func(i int) { tr.Render(io.Discard, NewRegistry()) },
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, set := range setters {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < each; i++ {
					set(i)
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	s := tr.Snapshots()[0]
	if s.Done != 2*each || s.MaxLevel != each || s.Note != "worker" {
		t.Fatalf("snapshot %+v after concurrent updates", s)
	}
}

// TestTrackerConcurrentStartTask registers and removes tasks from
// several goroutines at once, as concurrent experiments do on Progress.
func TestTrackerConcurrentStartTask(t *testing.T) {
	const workers, each = 4, 50
	tr := &Tracker{}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				task := tr.StartTask("start.test", 0)
				tr.Snapshots()
				task.Finish()
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := tr.Snapshots(); len(got) != 0 {
		t.Fatalf("%d tasks left after every task was removed", len(got))
	}
}

func TestFormatShort(t *testing.T) {
	for v, want := range map[float64]string{
		2:         "2",
		150:       "150",
		2500:      "2.5k",
		3_200_000: "3.2M",
	} {
		if got := formatShort(v); got != want {
			t.Errorf("formatShort(%v) = %q, want %q", v, got, want)
		}
	}
}
