package rs

import (
	"context"
	"runtime"

	"mlec/internal/runctl"
)

// EncodeParallel computes the parity shards like Encode, splitting the
// shard length across `workers` goroutines (Reed–Solomon is bytewise, so
// byte ranges encode independently). workers ≤ 0 selects NumCPU.
//
// This is the "more CPU cores" option the paper mentions for raising
// encoding throughput at extra hardware cost (§5.1.2 F#2); the
// ablation-cores experiment measures its (imperfect) scaling.
func (c *Codec) EncodeParallel(shards [][]byte, workers int) error {
	size, err := c.code.ShardSize(shards, true)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Below ~64 KiB per worker the goroutine overhead dominates.
	if workers = min(workers, size/(64<<10)); workers <= 1 {
		return c.Encode(shards)
	}
	chunk := (size + workers - 1) / workers
	pool := runctl.NewPool(context.Background())
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min(w*chunk+chunk, size)
		if lo >= hi {
			break
		}
		pool.Go(int64(w), func(context.Context) error {
			sub := make([][]byte, len(shards))
			for i, s := range shards {
				sub[i] = s[lo:hi]
			}
			// Each range is an independent encode; errors cannot occur
			// here because ShardSize already validated the geometry.
			return c.Encode(sub)
		})
	}
	return pool.Wait()
}
