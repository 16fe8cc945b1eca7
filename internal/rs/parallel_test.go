package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// encodeBoth runs serial Encode and EncodeParallel on copies of the
// same data shards and fails unless every output shard is
// byte-identical. Returns nothing: parity determinism is the property.
func encodeBoth(t *testing.T, c *Codec, size, workers int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	serial := newShards(c.DataShards(), c.ParityShards(), size)
	fillRandom(serial, c.DataShards(), rng)
	par := make([][]byte, len(serial))
	for i := range serial {
		par[i] = append([]byte(nil), serial[i]...)
	}
	if err := c.Encode(serial); err != nil {
		t.Fatalf("size=%d workers=%d: serial: %v", size, workers, err)
	}
	if err := c.EncodeParallel(par, workers); err != nil {
		t.Fatalf("size=%d workers=%d: parallel: %v", size, workers, err)
	}
	for i := range serial {
		if !bytes.Equal(serial[i], par[i]) {
			t.Fatalf("size=%d workers=%d: shard %d differs from serial encode",
				size, workers, i)
		}
	}
}

func TestEncodeParallelBelowCutoff(t *testing.T) {
	// Any size below the 64 KiB/worker cutoff must fall back to the
	// serial path (workers collapses to ≤ 1) and still be correct.
	c := mustNew(6, 2)
	for _, size := range []int{1, 100, 4 << 10, (64 << 10) - 1} {
		encodeBoth(t, c, size, 8, 101)
	}
}

func TestEncodeParallelCutoffBoundary(t *testing.T) {
	c := mustNew(4, 2)
	// Exactly one worker's worth: serial fallback.
	encodeBoth(t, c, 64<<10, 8, 102)
	// Exactly two workers' worth: first genuinely parallel size.
	encodeBoth(t, c, 128<<10, 2, 103)
	// One byte past a worker boundary: uneven final chunk.
	encodeBoth(t, c, 128<<10+1, 2, 104)
}

func TestEncodeParallelNonDivisible(t *testing.T) {
	// Sizes that don't divide evenly across workers exercise the
	// truncated final range and the lo >= hi early break.
	c := mustNew(10, 3)
	for _, tc := range []struct{ size, workers int }{
		{192<<10 + 1, 3},
		{192<<10 - 1, 3},
		{300<<10 + 7919, 4},
		{256 << 10, 7}, // workers reduced to size/64Ki = 4, chunked unevenly
	} {
		encodeBoth(t, c, tc.size, tc.workers, 105)
	}
}

func TestEncodeParallelManyWorkers(t *testing.T) {
	// More workers than 64 KiB slices (and more than bytes): the worker
	// count must clamp rather than spawn empty ranges.
	c := mustNew(3, 2)
	encodeBoth(t, c, 200<<10, 1000, 106)
	encodeBoth(t, c, 3, 1000, 107)
}

func TestEncodeParallelValidatesShards(t *testing.T) {
	c := mustNew(4, 2)
	shards := newShards(4, 2, 128<<10)
	shards[3] = nil
	if err := c.EncodeParallel(shards, 4); err == nil {
		t.Fatal("nil data shard not rejected")
	}
	shards = newShards(4, 2, 128<<10)
	shards[5] = make([]byte, 128<<10-1)
	if err := c.EncodeParallel(shards, 4); err != ErrShardSize {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
}

func TestEncodeParallelReconstructs(t *testing.T) {
	// End-to-end: parity produced in parallel must decode erasures like
	// serially produced parity.
	rng := rand.New(rand.NewSource(108))
	c := mustNew(8, 3)
	const size = 256<<10 + 333
	ref := newShards(8, 3, size)
	fillRandom(ref, 8, rng)
	if err := c.EncodeParallel(ref, 3); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, len(ref))
	for i := range ref {
		shards[i] = append([]byte(nil), ref[i]...)
	}
	shards[0], shards[4], shards[9] = nil, nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("shard %d mismatch after reconstruct", i)
		}
	}
}
