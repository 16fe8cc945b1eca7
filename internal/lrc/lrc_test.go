package lrc

import (
	"bytes"
	"math/rand"
	"testing"
)

func newFilled(t *testing.T, k, l, r, size int, seed int64) (*Codec, [][]byte) {
	t.Helper()
	c := MustNew(k, l, r)
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return c, shards
}

func cloneWithErasures(ref [][]byte, lost []int) [][]byte {
	shards := make([][]byte, len(ref))
	for i := range ref {
		shards[i] = append([]byte(nil), ref[i]...)
	}
	for _, l := range lost {
		shards[l] = nil
	}
	return shards
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, l, r int
		ok      bool
	}{
		{4, 2, 2, true}, {14, 2, 4, true}, {12, 3, 2, true},
		{5, 2, 2, false}, // k not divisible by l
		{0, 1, 1, false}, {4, 0, 2, false}, {4, 2, -1, false},
		{250, 5, 10, false}, // too wide
	}
	for _, c := range cases {
		_, err := New(c.k, c.l, c.r)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d,%d) err=%v want ok=%v", c.k, c.l, c.r, err, c.ok)
		}
	}
}

func TestPaperLayout422(t *testing.T) {
	// Figure 14: a (4,2,2) LRC. Chunks: a1 a2 a3 a4 | a12 a34 | ap aq
	c := MustNew(4, 2, 2)
	if c.TotalShards() != 8 {
		t.Fatalf("TotalShards = %d, want 8", c.TotalShards())
	}
	if c.GroupSize() != 2 {
		t.Fatalf("GroupSize = %d, want 2", c.GroupSize())
	}
	for i, want := range []int{0, 0, 1, 1, -1, -1, -1, -1} {
		if g := c.GroupOf(i); g != want {
			t.Errorf("GroupOf(%d) = %d, want %d", i, g, want)
		}
	}
	if got := c.StorageOverhead(); got != 1.0 {
		t.Errorf("StorageOverhead = %v, want 1.0", got)
	}
}

func TestLocalParityIsGroupXOR(t *testing.T) {
	_, shards := newFilled(t, 4, 2, 2, 64, 20)
	for i := range shards[0] {
		if shards[4][i] != shards[0][i]^shards[1][i] {
			t.Fatal("local parity 0 is not XOR of group 0")
		}
		if shards[5][i] != shards[2][i]^shards[3][i] {
			t.Fatal("local parity 1 is not XOR of group 1")
		}
	}
}

func TestSingleFailureLocalRepair(t *testing.T) {
	c, ref := newFilled(t, 14, 2, 4, 128, 21)
	for idx := 0; idx < c.DataShards()+c.LocalGroups(); idx++ {
		shards := cloneWithErasures(ref, []int{idx})
		if !c.LocalRepairable(shards, idx) {
			t.Fatalf("shard %d should be locally repairable", idx)
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
		if !bytes.Equal(shards[idx], ref[idx]) {
			t.Fatalf("shard %d mismatch after local repair", idx)
		}
	}
}

func TestGlobalParityNotLocallyRepairable(t *testing.T) {
	c, ref := newFilled(t, 4, 2, 2, 32, 22)
	shards := cloneWithErasures(ref, []int{6})
	if c.LocalRepairable(shards, 6) {
		t.Fatal("global parity must not be locally repairable")
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[6], ref[6]) {
		t.Fatal("global parity mismatch")
	}
}

// TestLocalRepairableWrongShardCount: a shard set of the wrong length is
// not repairable, and used to index out of range.
func TestLocalRepairableWrongShardCount(t *testing.T) {
	c, ref := newFilled(t, 4, 2, 2, 32, 22)
	for _, shards := range [][][]byte{nil, make([][]byte, 3), ref[:7], append(cloneWithErasures(ref, []int{0}), nil)} {
		if c.LocalRepairable(shards, 0) {
			t.Fatalf("LocalRepairable true on %d shards", len(shards))
		}
	}
}

// TestZeroLengthShards: a stripe of empty shards is a size error, not an
// unrecoverable pattern.
func TestZeroLengthShards(t *testing.T) {
	c := MustNew(4, 2, 2)
	shards := make([][]byte, 8)
	for i := range shards {
		shards[i] = []byte{}
	}
	if err := c.Encode(shards); err != ErrShardSize {
		t.Fatalf("Encode: err = %v, want ErrShardSize", err)
	}
	shards[0] = nil
	if err := c.Reconstruct(shards); err != ErrShardSize {
		t.Fatalf("Reconstruct: err = %v, want ErrShardSize", err)
	}
	if err := c.Reconstruct(make([][]byte, 8)); err != ErrUnrecoverable {
		t.Fatalf("Reconstruct of nothing: err = %v, want ErrUnrecoverable", err)
	}
}

func TestRplus1FailuresRecoverable(t *testing.T) {
	// Azure LRC tolerates any r+1 failures (it is Maximally
	// Recoverable; r+1 arbitrary failures are information-
	// theoretically decodable for these configs).
	c, ref := newFilled(t, 6, 2, 2, 64, 23)
	n := c.TotalShards()
	count := 0
	var rec func(start int, lost []int)
	rec = func(start int, lost []int) {
		if len(lost) == 3 { // r+1 = 3
			shards := cloneWithErasures(ref, lost)
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("lost %v: %v", lost, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], ref[i]) {
					t.Fatalf("lost %v: shard %d mismatch", lost, i)
				}
			}
			count++
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(lost, i))
		}
	}
	rec(0, nil)
	if count == 0 {
		t.Fatal("no patterns enumerated")
	}
}

func TestInformationTheoreticLimit(t *testing.T) {
	// Any l+r+1 failures must be unrecoverable (more erasures than
	// parities), e.g. 5 failures for (4,2,2).
	c, ref := newFilled(t, 4, 2, 2, 32, 24)
	shards := cloneWithErasures(ref, []int{0, 1, 2, 3, 4})
	if err := c.Reconstruct(shards); err != ErrUnrecoverable {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestUnrecoverablePattern(t *testing.T) {
	// Whole group 0 (2 data + its local parity) plus both globals is 5
	// failures; but a sharper case: 2 data of group 0 + local parity 0
	// + 1 global = 4 failures with only 1 remaining global to cover 2
	// unknowns → unrecoverable.
	c, ref := newFilled(t, 4, 2, 2, 32, 25)
	shards := cloneWithErasures(ref, []int{0, 1, 4, 6})
	if err := c.Reconstruct(shards); err != ErrUnrecoverable {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestFourFailuresSpreadRecoverable(t *testing.T) {
	// (4,2,2) has 4 parities; the Azure LRC recovers "most" 4-failure
	// patterns — specifically those where each group's deficit is
	// coverable. 1 data per group + both globals works.
	c, ref := newFilled(t, 4, 2, 2, 32, 26)
	shards := cloneWithErasures(ref, []int{0, 2, 6, 7})
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
}

func TestVerify(t *testing.T) {
	c, shards := newFilled(t, 12, 3, 2, 64, 27)
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
	shards[3][10] ^= 1
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify after corruption = %v, %v", ok, err)
	}
}

func TestPaperConfig1424RandomErasures(t *testing.T) {
	// The paper's (14,2,4) LRC from §5.2.3: tolerate any 4 random
	// erasures... actually r+1=5 arbitrary failures are recoverable for
	// Azure MR-LRC; check random 5-subsets decode or match the rank
	// criterion.
	c, ref := newFilled(t, 14, 2, 4, 64, 28)
	rng := rand.New(rand.NewSource(29))
	n := c.TotalShards()
	recovered, failed := 0, 0
	for trial := 0; trial < 300; trial++ {
		lost := rng.Perm(n)[:5]
		shards := cloneWithErasures(ref, lost)
		err := c.Reconstruct(shards)
		if err == nil {
			recovered++
			for i := range shards {
				if !bytes.Equal(shards[i], ref[i]) {
					t.Fatalf("lost %v: shard %d mismatch", lost, i)
				}
			}
		} else {
			failed++
		}
	}
	// For (14,2,4) nearly all 5-failure patterns are recoverable; at
	// minimum the majority must be.
	if recovered == 0 {
		t.Fatal("no 5-failure pattern recovered")
	}
	t.Logf("(14,2,4): %d/%d 5-failure patterns recovered", recovered, recovered+failed)
}

func TestZeroGlobalParities(t *testing.T) {
	// (k, l, 0) degenerates to per-group RAID5.
	c, ref := newFilled(t, 6, 3, 0, 32, 30)
	shards := cloneWithErasures(ref, []int{0, 2, 4}) // one per group
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
	// Two failures in one group: unrecoverable without globals.
	shards = cloneWithErasures(ref, []int{0, 1})
	if err := c.Reconstruct(shards); err != ErrUnrecoverable {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}
