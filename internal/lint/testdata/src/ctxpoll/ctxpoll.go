// Package ctxpoll exercises the ctxpoll analyzer: a context-accepting
// function whose loops draw random numbers or step a simulation engine
// must consult the context somewhere.
package ctxpoll

import (
	"context"
	"math/rand"

	"mlec/internal/sim"
)

// NoPoll accepts a context and then ignores it around a trial loop.
func NoPoll(ctx context.Context, trials int, rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < trials; i++ { // want `never consults its context`
		sum += rng.Float64()
	}
	return sum
}

// Polls checks ctx.Err periodically: the canonical engine pattern.
func Polls(ctx context.Context, trials int, rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < trials; i++ {
		if i%1024 == 0 && ctx.Err() != nil {
			return sum
		}
		sum += rng.Float64()
	}
	return sum
}

// Delegates hands ctx to a callee, transferring the polling obligation.
func Delegates(ctx context.Context, trials int, rng *rand.Rand) float64 {
	total := 0.0
	for i := 0; i < trials; i++ {
		total += onceWith(ctx, rng)
	}
	return total
}

func onceWith(ctx context.Context, rng *rand.Rand) float64 {
	if ctx.Err() != nil {
		return 0
	}
	return rng.Float64()
}

// NoCtx takes no context, so there is nothing to poll.
func NoCtx(trials int, rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += rng.Float64()
	}
	return sum
}

// SetupOnly loops without randomness or engine stepping: not a work
// loop, so the unused context is fine.
func SetupOnly(ctx context.Context, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// StepsEngine drives an event loop without ever consulting ctx.
func StepsEngine(ctx context.Context, eng *sim.Engine) {
	for eng.Step() { // want `never consults its context`
	}
}

// Closure literals with their own context parameter are analyzed as
// functions in their own right.
func SpawnsWorker(rng *rand.Rand) func(context.Context) float64 {
	return func(ctx context.Context) float64 {
		sum := 0.0
		for i := 0; i < 10; i++ { // want `never consults its context`
			sum += rng.Float64()
		}
		return sum
	}
}

// Allowed is a reviewed suppression: the loop is tightly bounded.
func Allowed(ctx context.Context, rng *rand.Rand) float64 {
	sum := 0.0
	//lint:allow ctxpoll loop bounded to 8 draws, cancellation latency negligible
	for i := 0; i < 8; i++ {
		sum += rng.Float64()
	}
	return sum
}

// PoolWorker is the campaign worker shape: a literal with its own
// context, handed to a pool, whose loop passes the generator to a
// sampler instead of drawing from it directly.
func PoolWorker(spawn func(func(context.Context) error), rng *rand.Rand) {
	spawn(func(ctx context.Context) error {
		for i := 0; i < 64; i++ { // want `never consults its context`
			draw(rng)
		}
		return nil
	})
}

func draw(rng *rand.Rand) float64 { return rng.Float64() }
