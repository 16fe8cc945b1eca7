package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSharedCodecConcurrentDecode drives Reconstruct, ReconstructData and
// Verify on one Codec from several goroutines at once, each with its own
// stripe and erasure pattern. The codec's pooled decoder scratch is the
// state they share: under the race detector (make race) a scratch handed
// to two calls at once is reported, and without it the rebuilt bytes
// would differ from the stripe.
func TestSharedCodecConcurrentDecode(t *testing.T) {
	c := MustNew(10, 4)
	const workers, rounds = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ref := newShards(10, 4, 257+64*w)
			fillRandom(ref, 10, rng)
			if err := c.Encode(ref); err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				shards := append([][]byte(nil), ref...)
				lost := rng.Perm(14)[:1+rng.Intn(4)]
				for _, i := range lost {
					shards[i] = nil
				}
				decode := c.Reconstruct
				if r%2 == 1 {
					decode = c.ReconstructData
				}
				if err := decode(shards); err != nil {
					errs <- fmt.Errorf("worker %d round %d, lost %v: %w", w, r, lost, err)
					return
				}
				for _, i := range lost {
					if shards[i] == nil && (i < 10 || r%2 == 0) || shards[i] != nil && !bytes.Equal(shards[i], ref[i]) {
						errs <- fmt.Errorf("worker %d round %d: shard %d of %v rebuilt wrong", w, r, i, lost)
						return
					}
				}
				if ok, err := c.Verify(ref); !ok || err != nil {
					errs <- fmt.Errorf("worker %d round %d: Verify = %v, %v on an encoded stripe", w, r, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
