// Package goleak exercises the goroutine-lifecycle analyzer: every go
// statement needs a provable join or cancel path — WaitGroup Add/Done
// pairing, a channel/context receive, or a channel join.
package goleak

import (
	"context"
	"os"
	"sync"
)

// Pooled is the fan-out idiom: Add before the go, Done inside.
func Pooled(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// NestedDone keeps Done inside a deferred closure (the runctl.Pool
// shape); the pairing must still be seen.
func NestedDone() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer func() {
			wg.Done()
		}()
	}()
	wg.Wait()
}

// AddInside pairs correctly for the spawn itself but re-Adds from
// inside the goroutine — the spawner may already be in Wait.
func AddInside() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Add(1) // want `wg.Add inside the spawned goroutine races a concurrent Wait`
		defer wg.Done()
		wg.Done()
	}()
	wg.Wait()
}

// Watch listens for cancellation: the goroutine can be told to stop.
func Watch(ctx context.Context, tick chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick:
			}
		}
	}()
}

// Join sends its result to a channel the spawner receives from.
func Join() int {
	res := make(chan int)
	go func() {
		res <- 42
	}()
	return <-res
}

// worker blocks on its context: a cancel path one call down.
func worker(ctx context.Context) {
	<-ctx.Done()
}

// SpawnWorker is clean through the named callee's body.
func SpawnWorker(ctx context.Context) {
	go worker(ctx)
}

// Leak has no discipline at all: nobody can wait for it or stop it.
func Leak() {
	go func() { // want `goroutine has no provable join or cancel path`
		println("hi")
	}()
}

// loopForever never listens for anything.
func loopForever() {
	for {
		_ = 1
	}
}

// SpawnLoop leaks through a named callee.
func SpawnLoop() {
	go loopForever() // want `goroutine has no provable join or cancel path`
}

// Detached hands the goroutine to a standard-library function: no body
// to follow, nothing to join.
func Detached(path string) {
	go os.Remove(path) // want `goroutine has no provable join or cancel path`
}

// Escalate starts a second goroutine from inside a cancellable one; the
// inner one listens for nothing.
func Escalate(ctx context.Context, quit func()) {
	go func() {
		<-ctx.Done()
		go func() { // want `goroutine has no provable join or cancel path`
			quit()
		}()
	}()
}
