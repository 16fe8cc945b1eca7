// Package throughput measures single-goroutine erasure-encoding
// throughput of the real codecs — the reproduction of the paper's
// Figure 11 (ISA-L on one Xeon core) and the throughput axes of
// Figures 12 and 15.
//
// The kernel under the codecs (gf256.Apply) multiplies with ISA-L's
// split-nibble AVX2 shuffles where the CPU has them and with Go table
// loops elsewhere, so absolute numbers depend on the host; the shape —
// throughput falling with p (parity work is O(k·p) per stripe) and with
// wide k (cache pressure), MLEC beating wide SLEC at equal durability —
// depends only on the arithmetic volume, which is identical.
package throughput

import (
	"fmt"
	"time"

	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/rs"
)

// DefaultShardBytes is the shard size used by the measurements; with a
// (k+p) stripe this keeps the working set in the same cache regime the
// paper's 128 KiB chunks produce.
const DefaultShardBytes = 128 << 10

// measure runs encode in a loop for at least dur and returns the
// data-ingest throughput in bytes/second (k data shards per iteration).
func measure(encode func(shards [][]byte) error, shards [][]byte, dataShards, shardBytes int, dur time.Duration) (float64, error) {
	// Warm up once (builds tables into cache, faults pages).
	if err := encode(shards); err != nil {
		return 0, err
	}
	var iters int
	start := time.Now()
	var elapsed time.Duration
	for elapsed < dur {
		if err := encode(shards); err != nil {
			return 0, err
		}
		iters++
		elapsed = time.Since(start)
	}
	bytes := float64(iters) * float64(dataShards) * float64(shardBytes)
	return bytes / elapsed.Seconds(), nil
}

func makeShards(total, shardBytes int) [][]byte {
	shards := make([][]byte, total)
	for i := range shards {
		shards[i] = make([]byte, shardBytes)
		for j := range shards[i] {
			shards[i][j] = byte(i*31 + j)
		}
	}
	return shards
}

// MeasureRS returns the single-goroutine encoding throughput of a (k+p)
// Reed–Solomon code in bytes of data per second.
func MeasureRS(k, p, shardBytes int, dur time.Duration) (float64, error) {
	if p == 0 {
		return 0, fmt.Errorf("throughput: p=0 has nothing to encode")
	}
	codec, err := rs.New(k, p)
	if err != nil {
		return 0, err
	}
	return measure(codec.Encode, makeShards(k+p, shardBytes), k, shardBytes, dur)
}

// MeasureLRC returns the single-goroutine encoding throughput of a
// (k, l, r) LRC in bytes of data per second (both encoding stages).
func MeasureLRC(k, l, r, shardBytes int, dur time.Duration) (float64, error) {
	codec, err := lrc.New(k, l, r)
	if err != nil {
		return 0, err
	}
	return measure(codec.Encode, makeShards(codec.TotalShards(), shardBytes), k, shardBytes, dur)
}

// MeasureMLEC returns the end-to-end MLEC encoding throughput: every
// byte passes the network-level (kn+pn) encoder and then the local-level
// (kl+pl) encoder, so the ingest rates compose harmonically.
func MeasureMLEC(params placement.Params, shardBytes int, dur time.Duration) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	tn, err := MeasureRS(params.KN, params.PN, shardBytes, dur)
	if err != nil {
		return 0, fmt.Errorf("throughput: network level: %w", err)
	}
	tl, err := MeasureRS(params.KL, params.PL, shardBytes, dur)
	if err != nil {
		return 0, fmt.Errorf("throughput: local level: %w", err)
	}
	return Compose(tn, tl), nil
}

// Compose combines two pipeline stage throughputs: a byte spending
// 1/a + 1/b seconds total flows at the harmonic composition.
func Compose(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return 1 / (1/a + 1/b)
}

// Cell is one Figure 11 heatmap entry.
type Cell struct {
	K, P        int
	BytesPerSec float64
}

// Fig11Grid measures the (k, p) encoding-throughput heatmap. ks and ps
// select the grid; dur is the per-cell measurement budget.
func Fig11Grid(ks, ps []int, shardBytes int, dur time.Duration) ([]Cell, error) {
	cells := make([]Cell, 0, len(ks)*len(ps))
	for _, p := range ps {
		for _, k := range ks {
			v, err := MeasureRS(k, p, shardBytes, dur)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{K: k, P: p, BytesPerSec: v})
		}
	}
	return cells, nil
}

// MeasureRSParallel is MeasureRS with the encode split across `workers`
// goroutines — the paper's "more CPU cores" option for raising encoding
// throughput (§5.1.2 F#2). Scaling is imperfect (memory bandwidth and
// split overhead), which the ablation-cores experiment quantifies.
func MeasureRSParallel(k, p, shardBytes, workers int, dur time.Duration) (float64, error) {
	if p == 0 {
		return 0, fmt.Errorf("throughput: p=0 has nothing to encode")
	}
	codec, err := rs.New(k, p)
	if err != nil {
		return 0, err
	}
	encode := func(shards [][]byte) error { return codec.EncodeParallel(shards, workers) }
	return measure(encode, makeShards(k+p, shardBytes), k, shardBytes, dur)
}
