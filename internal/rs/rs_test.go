package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// mustNew builds a codec of a fixed test shape; a shape New rejects is
// a bug in the test.
func mustNew(k, p int) *Codec {
	c, err := New(k, p)
	if err != nil {
		panic(err)
	}
	return c
}

func fillRandom(shards [][]byte, k int, rng *rand.Rand) {
	for i := 0; i < k; i++ {
		rng.Read(shards[i])
	}
}

func newShards(k, p, size int) [][]byte {
	s := make([][]byte, k+p)
	for i := range s {
		s[i] = make([]byte, size)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, p int
		ok   bool
	}{
		{1, 0, true}, {1, 1, true}, {10, 2, true}, {17, 3, true},
		{255, 1, true}, {246, 10, true},
		{0, 1, false}, {-1, 2, false}, {10, -1, false}, {250, 10, false},
	}
	for _, c := range cases {
		_, err := New(c.k, c.p)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d) err=%v, want ok=%v", c.k, c.p, err, c.ok)
		}
	}
}

func TestEncodeVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, cfg := range []struct{ k, p int }{{2, 1}, {4, 2}, {10, 2}, {17, 3}, {10, 4}} {
		c := mustNew(cfg.k, cfg.p)
		shards := newShards(cfg.k, cfg.p, 1024)
		fillRandom(shards, cfg.k, rng)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		ok, err := c.Verify(shards)
		if err != nil || !ok {
			t.Fatalf("(%d+%d) Verify = %v, %v", cfg.k, cfg.p, ok, err)
		}
		// Corrupt one byte → Verify must fail.
		shards[0][17] ^= 0xff
		ok, err = c.Verify(shards)
		if err != nil || ok {
			t.Fatalf("(%d+%d) Verify after corruption = %v, %v", cfg.k, cfg.p, ok, err)
		}
	}
}

// TestMDSExhaustive checks that EVERY erasure pattern of up to p shards is
// recoverable, for a set of small codes.
func TestMDSExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ k, p int }{{2, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}} {
		c := mustNew(cfg.k, cfg.p)
		n := cfg.k + cfg.p
		ref := newShards(cfg.k, cfg.p, 64)
		fillRandom(ref, cfg.k, rng)
		if err := c.Encode(ref); err != nil {
			t.Fatal(err)
		}
		// Enumerate all subsets of shards to erase with size ≤ p.
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) > cfg.p {
				continue
			}
			shards := make([][]byte, n)
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					shards[i] = append([]byte(nil), ref[i]...)
				}
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("(%d+%d) mask=%b: %v", cfg.k, cfg.p, mask, err)
			}
			for i := 0; i < n; i++ {
				if !bytes.Equal(shards[i], ref[i]) {
					t.Fatalf("(%d+%d) mask=%b: shard %d mismatch", cfg.k, cfg.p, mask, i)
				}
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestReconstructPaperConfig(t *testing.T) {
	// The paper's local code (17+3): random triple erasures.
	rng := rand.New(rand.NewSource(12))
	c := mustNew(17, 3)
	ref := newShards(17, 3, 512)
	fillRandom(ref, 17, rng)
	if err := c.Encode(ref); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		lost := rng.Perm(20)[:3]
		shards := make([][]byte, 20)
		for i := range shards {
			shards[i] = append([]byte(nil), ref[i]...)
		}
		for _, l := range lost {
			shards[l] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d lost %v: %v", trial, lost, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("trial %d: shard %d mismatch", trial, i)
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	c := mustNew(4, 2)
	shards := newShards(4, 2, 16)
	fillRandom(shards, 4, rand.New(rand.NewSource(13)))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructDataOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := mustNew(6, 3)
	ref := newShards(6, 3, 128)
	fillRandom(ref, 6, rng)
	if err := c.Encode(ref); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 9)
	for i := range shards {
		shards[i] = append([]byte(nil), ref[i]...)
	}
	shards[1] = nil // data
	shards[7] = nil // parity
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], ref[1]) {
		t.Fatal("data shard not reconstructed")
	}
	if shards[7] != nil {
		t.Fatal("parity shard reconstructed by ReconstructData")
	}
}

func TestShardSizeMismatch(t *testing.T) {
	c := mustNew(3, 2)
	shards := newShards(3, 2, 32)
	shards[2] = make([]byte, 31)
	if err := c.Encode(shards); err != ErrShardSize {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
}

// TestZeroLengthShards: a stripe of empty shards is a size error to every
// entry point, not a shortage of shards.
func TestZeroLengthShards(t *testing.T) {
	c := mustNew(3, 2)
	shards := newShards(3, 2, 0)
	if err := c.Encode(shards); err != ErrShardSize {
		t.Fatalf("Encode: err = %v, want ErrShardSize", err)
	}
	if _, err := c.Verify(shards); err != ErrShardSize {
		t.Fatalf("Verify: err = %v, want ErrShardSize", err)
	}
	shards[1] = nil
	if err := c.Reconstruct(shards); err != ErrShardSize {
		t.Fatalf("Reconstruct: err = %v, want ErrShardSize", err)
	}
	if err := c.Reconstruct(make([][]byte, 5)); err != ErrTooFewShards {
		t.Fatalf("Reconstruct of nothing: err = %v, want ErrTooFewShards", err)
	}
}

func TestParityRowsNonzero(t *testing.T) {
	// Every coefficient of every parity row must be nonzero, otherwise
	// some data shard would not be protected by that parity (a zero
	// coefficient would break the MDS property for some erasure set).
	for _, cfg := range []struct{ k, p int }{{2, 1}, {10, 2}, {17, 3}} {
		c := mustNew(cfg.k, cfg.p)
		for i := 0; i < cfg.p; i++ {
			row, err := c.ParityRow(i)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range row {
				if v == 0 {
					t.Fatalf("(%d+%d) parity row %d col %d is zero", cfg.k, cfg.p, i, j)
				}
			}
		}
	}
}

func TestParityRowBounds(t *testing.T) {
	c := mustNew(4, 2)
	if _, err := c.ParityRow(2); err == nil {
		t.Fatal("ParityRow(2) did not error")
	}
	if _, err := c.ParityRow(-1); err == nil {
		t.Fatal("ParityRow(-1) did not error")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c1 := mustNew(10, 2)
	c2 := mustNew(10, 2)
	s1 := newShards(10, 2, 64)
	fillRandom(s1, 10, rng)
	s2 := make([][]byte, len(s1))
	for i := range s1 {
		s2[i] = append([]byte(nil), s1[i]...)
	}
	if err := c1.Encode(s1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Encode(s2); err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !bytes.Equal(s1[i], s2[i]) {
			t.Fatal("two codecs with same parameters disagree")
		}
	}
}

func TestWideCode(t *testing.T) {
	// Wide stripe like the paper's throughput sweep upper range.
	rng := rand.New(rand.NewSource(16))
	c := mustNew(50, 10)
	shards := newShards(50, 10, 256)
	fillRandom(shards, 50, rng)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ref := make([][]byte, len(shards))
	for i := range shards {
		ref[i] = append([]byte(nil), shards[i]...)
	}
	for _, l := range rng.Perm(60)[:10] {
		shards[l] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("wide code shard %d mismatch", i)
		}
	}
}

func TestEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := mustNew(10, 3)
	const size = 512 << 10 // big enough to actually split
	serial := newShards(10, 3, size)
	fillRandom(serial, 10, rng)
	parallel := make([][]byte, len(serial))
	for i := range serial {
		parallel[i] = append([]byte(nil), serial[i]...)
	}
	if err := c.Encode(serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for i := range parallel {
			if i >= 10 {
				for j := range parallel[i] {
					parallel[i][j] = 0
				}
			}
		}
		if err := c.EncodeParallel(parallel, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if !bytes.Equal(serial[i], parallel[i]) {
				t.Fatalf("workers=%d: shard %d differs from serial encode", workers, i)
			}
		}
	}
}

func TestEncodeParallelSmallInput(t *testing.T) {
	// Tiny shards must fall back to the serial path without error.
	rng := rand.New(rand.NewSource(78))
	c := mustNew(4, 2)
	shards := newShards(4, 2, 100)
	fillRandom(shards, 4, rng)
	if err := c.EncodeParallel(shards, 8); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
}
