package gf256_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/rs"
)

// The byte contract of the codecs: for a fixed generator and fixed data
// every parity byte and every rebuilt byte is determined, so a change to
// the kernels or the solver must leave the digests below where they were
// recorded (on the tree before gf256.Apply existed). A digest is FNV-64a
// over the shards in index order.

var pinnedSizes = [5]int{1, 15, 17, 4099, 128 << 10}

// pinnedCodec is what the pin needs of rs.Codec and lrc.Codec.
type pinnedCodec interface {
	Encode(shards [][]byte) error
	Reconstruct(shards [][]byte) error
}

type pinnedShape struct {
	name      string
	k, parity int
	codec     pinnedCodec
	// erasures holds one pattern per class; rs shapes also run each
	// through ReconstructData.
	erasures [][]int
	// parity[i] digests every parity shard at pinnedSizes[i]; rebuilt[i]
	// every shard the patterns rebuilt, pattern after pattern.
	parityDigest, rebuiltDigest [5]uint64
}

func rsShape(k, p int, parity, rebuilt [5]uint64) pinnedShape {
	exactlyP := []int{k + p - 1}
	for i := 0; len(exactlyP) < p; i += 2 {
		exactlyP = append(exactlyP, i)
	}
	return pinnedShape{
		name: fmt.Sprintf("rs %d+%d", k, p), k: k, parity: p, codec: mustRS(k, p),
		erasures: [][]int{
			{k / 2},     // one data
			{k + p - 1}, // one parity
			{0, k},      // mixed
			exactlyP,
		},
		parityDigest: parity, rebuiltDigest: rebuilt,
	}
}

func lrcShape(k, l, r int, parity, rebuilt [5]uint64) pinnedShape {
	g := k / l
	return pinnedShape{
		name: fmt.Sprintf("lrc %d,%d,%d", k, l, r), k: k, parity: l + r, codec: mustLRC(k, l, r),
		erasures: [][]int{
			{1},                       // single data loss in a group
			{k},                       // a local parity alone
			{0, 1, k + l},             // two in one group plus a global
			{g, k + 1, k + l + r - 1}, // data and its local parity plus a global
		},
		parityDigest: parity, rebuiltDigest: rebuilt,
	}
}

var pinnedShapes = []pinnedShape{
	rsShape(10, 2,
		[5]uint64{0x8547207b50830f1, 0x4393439ca84da658, 0xb5601a66c7d99b1a, 0x3948940645bf12c8, 0xe88518a4f5731ece},
		[5]uint64{0x92cc7daa8b840101, 0xbb9b709bc353b87e, 0xf0945d1723909ed4, 0x753134d7fa2a182b, 0xe8575febdeda8c64}),
	rsShape(17, 3,
		[5]uint64{0xe64ad1c81273094, 0x6368eb6cb6ec5741, 0xaa343abdb26f55a9, 0x7be840370a5b74a3, 0x3e4ee751b33d32cd},
		[5]uint64{0x5fd080a8fc695dec, 0x1432daaf1a82bd0, 0xeb38a070e879579c, 0x1cc3b52aee3bc33d, 0x8c58786b260f8175}),
	rsShape(7, 3,
		[5]uint64{0x5a97c318b51bda20, 0x98b53e21b388eb23, 0xdebb3e8fcc90dde2, 0x45af9cc512aeb994, 0xdd35b0acb69c85c2},
		[5]uint64{0x4fb7c6a2746cd4a2, 0x51145b5972e46015, 0xdcd9fe953627dcf8, 0x9838cc9c958ba69c, 0x9614e56ee8d26e7c}),
	rsShape(28, 12,
		[5]uint64{0xe6f4198bb5d92eb2, 0xfa7cf8dd16aa36e3, 0x5139ed3a568b1542, 0xd9e8409b8e2983f9, 0xdad2d3765659fc2},
		[5]uint64{0x35ce0751f135b217, 0xcdb7da039adde9f5, 0xd25bdf4856b72f2, 0x3d76cc3fbc738429, 0x7aa248cad3b4629c}),
	rsShape(50, 10,
		[5]uint64{0xcba72a6392ee7911, 0x43e9e89e68999ee9, 0x7e5cc98a2eb4ece7, 0xf4fc8dc984b18ac, 0xde10898e62d379b3},
		[5]uint64{0x46ef1d35347417ed, 0x22b11d8cdb9012e7, 0x1510e28c5b36526a, 0xd5f27a3b537b7ee3, 0xdce3dc2cc6f2e945}),
	lrcShape(14, 2, 4,
		[5]uint64{0xe9911b8aabcbe433, 0xc35e155891f90f4c, 0x8bf3f474a9d3ff67, 0xc5343d6ba729572c, 0x6d74d0760dcdd63b},
		[5]uint64{0xeacd21066c7fb49d, 0xd46649d65589e372, 0x38ed4c8462cc0b87, 0xb508fdb27eee159b, 0xec71789affc93b62}),
	lrcShape(4, 2, 2,
		[5]uint64{0x6c0231c75d4af0af, 0xbf436ef712ea2524, 0xb1ced85df66e143c, 0xe8032b18b123dad8, 0xd0e97a3b5d2e842f},
		[5]uint64{0xc1e69a0975e5c6f7, 0xff429f3a52fceb3d, 0xf48b88731e293f94, 0x451b61eeceb9d503, 0xde68bb5c56930184}),
}

func TestCodecBytesPinned(t *testing.T) { gf256.OnKernels(t, codecBytesPinned) }

func codecBytesPinned(t *testing.T) {
	for si, sh := range pinnedShapes {
		for zi, size := range pinnedSizes {
			rng := rand.New(rand.NewSource(int64(1000*si + zi)))
			ref := make([][]byte, sh.k+sh.parity)
			for i := range ref {
				ref[i] = make([]byte, size)
				if i < sh.k {
					rng.Read(ref[i])
				}
			}
			if err := sh.codec.Encode(ref); err != nil {
				t.Fatalf("%s size %d: Encode: %v", sh.name, size, err)
			}
			parity := fnv.New64a()
			for _, s := range ref[sh.k:] {
				parity.Write(s)
			}
			if got := parity.Sum64(); got != sh.parityDigest[zi] {
				t.Errorf("%s size %d: parity digest %#x, pinned %#x", sh.name, size, got, sh.parityDigest[zi])
			}

			rebuilt := fnv.New64a()
			run := func(what string, lost []int, reconstruct func([][]byte) error, dataOnly bool) {
				shards := append([][]byte(nil), ref...)
				for _, i := range lost {
					shards[i] = nil
				}
				if err := reconstruct(shards); err != nil {
					t.Fatalf("%s size %d: %s%v: %v", sh.name, size, what, lost, err)
				}
				for _, i := range lost {
					if dataOnly && i >= sh.k {
						if shards[i] != nil {
							t.Errorf("%s size %d: %s%v rebuilt parity %d", sh.name, size, what, lost, i)
						}
						continue
					}
					rebuilt.Write(shards[i])
				}
			}
			for _, lost := range sh.erasures {
				run("Reconstruct", lost, sh.codec.Reconstruct, false)
				if c, ok := sh.codec.(*rs.Codec); ok {
					run("ReconstructData", lost, c.ReconstructData, true)
				}
			}
			if got := rebuilt.Sum64(); got != sh.rebuiltDigest[zi] {
				t.Errorf("%s size %d: rebuilt digest %#x, pinned %#x", sh.name, size, got, sh.rebuiltDigest[zi])
			}
		}
	}
}
