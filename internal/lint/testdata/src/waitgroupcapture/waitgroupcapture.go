// Fixture for the waitgroupcapture analyzer.
package fixwaitgroupcapture

import "sync"

// CaptureLoop references the for-loop variable inside the goroutine:
// per-iteration since Go 1.22, exempt.
func CaptureLoop() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = i
		}()
	}
	wg.Wait()
}

// CaptureRange is the range-loop variant.
func CaptureRange(xs []int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = x
		}()
	}
	wg.Wait()
}

// SharedSum accumulates into a pre-loop variable without a lock:
// flagged.
func SharedSum(xs []float64) float64 {
	var wg sync.WaitGroup
	sum := 0.0
	for i := 0; i < len(xs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum += xs[i] // want `writes shared accumulator "sum"`
		}(i)
	}
	wg.Wait()
	return sum
}

// FirstError keeps a fan-out's failure in one shared variable: flagged.
func FirstError(jobs []func() error) error {
	var wg sync.WaitGroup
	var failed error
	for _, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job(); err != nil {
				failed = err // want `writes shared accumulator "failed"`
			}
		}()
	}
	wg.Wait()
	return failed
}

// PerSlot writes distinct slice elements: the blessed pattern, exempt.
func PerSlot(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var wg sync.WaitGroup
	for i := 0; i < len(xs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = xs[i] * 2
		}(i)
	}
	wg.Wait()
	return out
}

// MutexSum holds a lock around the shared write: exempt.
func MutexSum(xs []float64) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	sum := 0.0
	for i := 0; i < len(xs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			sum += xs[i]
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return sum
}

// ParamPass passes the loop variable as a goroutine parameter: exempt.
func ParamPass() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = i
		}(i)
	}
	wg.Wait()
}

// AddInGoroutine moves the Add inside the spawned body: goleak's
// finding (Add-after-Wait race), not a shared-accumulator write.
func AddInGoroutine() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Add(1)
		defer wg.Done()
		wg.Done()
	}()
	wg.Wait()
}

// OwnWaitGroup declares the WaitGroup inside the goroutine: private,
// exempt.
func OwnWaitGroup() {
	done := make(chan struct{})
	go func() {
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
		}()
		inner.Wait()
		close(done)
	}()
	<-done
}
