package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"mlec"
	"mlec/internal/lrc"
	"mlec/internal/rs"
)

// ---------------------------------------------------------------- codec_encode

// codecShape is one code the encode workload drives at a fixed number of
// stripes per pass; iteration counts put each shape near 0.12 s on the
// baseline so no shape dominates.
type codecShape struct {
	name    string
	k, p    int
	l, r    int // LRC local groups and global parities; 0 for RS
	stripes int
}

var codecShapes = []codecShape{
	{name: "rs 10+2", k: 10, p: 2, stripes: 150},
	{name: "rs 17+3", k: 17, p: 3, stripes: 60},
	{name: "rs 7+3", k: 7, p: 3, stripes: 150},
	{name: "rs 28+12", k: 28, p: 12, stripes: 10},
	{name: "rs 50+10", k: 50, p: 10, stripes: 7},
	{name: "lrc 14,2,4", k: 14, l: 2, r: 4, stripes: 45},
}

// stripeCodec is what the encode workload needs of rs.Codec and lrc.Codec.
type stripeCodec interface {
	Encode(shards [][]byte) error
	Verify(shards [][]byte) (bool, error)
}

func (sh codecShape) newCodec() (stripeCodec, error) {
	if sh.l > 0 {
		return lrc.New(sh.k, sh.l, sh.r)
	}
	return rs.New(sh.k, sh.p)
}

// mlecPipelineStripes is how many network stripes of the paper's two-level
// (10+2)/(17+3) code a pass encodes.
const mlecPipelineStripes = 3

// shardSet holds a stripe's shards: data filled from the seed, parity
// written by the codec.
type shardSet [][]byte

func newShardSet(rng *rand.Rand, k, parity, size int) shardSet {
	s := make(shardSet, k+parity)
	for i := range s {
		if i < k {
			s[i] = randomBytes(rng, size)
		} else {
			s[i] = make([]byte, size)
		}
	}
	return s
}

func prepareCodecEncode(seed int64, sc scale) (passFunc, error) {
	shardBytes, shrink := 128<<10, 1
	if sc == tiny {
		shardBytes, shrink = 4<<10, 50
	}
	rng := rand.New(rand.NewSource(seed))
	sets := make([]shardSet, len(codecShapes))
	for i, sh := range codecShapes {
		sets[i] = newShardSet(rng, sh.k, sh.p+sh.l+sh.r, shardBytes)
	}
	// Two-level pipeline: kn network data shards of kl chunks each, pn
	// network parities of the same size, then every one of the kn+pn
	// network shards split into kl local data chunks plus pl parities.
	params := mlec.DefaultParams()
	net := newShardSet(rng, params.KN, params.PN, params.KL*shardBytes)
	locals := make([]shardSet, params.NetworkWidth())
	for i := range locals {
		ls := make(shardSet, params.LocalWidth())
		for j := range ls {
			if j < params.KL {
				ls[j] = net[i][j*shardBytes : (j+1)*shardBytes]
			} else {
				ls[j] = make([]byte, shardBytes)
			}
		}
		locals[i] = ls
	}

	return func(p *passCtx) {
		for i, sh := range codecShapes {
			set, stripes := sets[i], max(1, sh.stripes/shrink)
			layer := "rs"
			if sh.l > 0 {
				layer = "lrc"
			}
			var ok bool
			var err error
			p.timed(layer, sh.name, func() {
				var c stripeCodec
				if c, err = sh.newCodec(); err != nil {
					return
				}
				for n := 0; n < stripes && err == nil; n++ {
					err = c.Encode(set)
				}
				if err == nil {
					ok, err = c.Verify(set)
				}
			})
			if sh.l > 0 { // the first local parity is the XOR of its group
				checkXORParity(p.ck, sh.name, set[:sh.k/sh.l], set[sh.k])
			}
			p.ck.noErr(err, sh.name)
			checkVerified(p.ck, sh.name, ok)
			mb := float64(stripes*sh.k*shardBytes) / 1e6
			p.work += mb
			p.dig.str(sh.name)
			for _, parity := range set[sh.k:] {
				p.dig.blob(parity)
			}
		}

		stripes := max(1, mlecPipelineStripes/shrink)
		var okNet, okLoc bool
		var err error
		p.timed("rs", "mlec (10+2)/(17+3)", func() {
			var nc, lc *rs.Codec
			if nc, err = rs.New(params.KN, params.PN); err != nil {
				return
			}
			if lc, err = rs.New(params.KL, params.PL); err != nil {
				return
			}
			for n := 0; n < stripes && err == nil; n++ {
				if err = nc.Encode(net); err != nil {
					return
				}
				for _, ls := range locals {
					if err = lc.Encode(ls); err != nil {
						return
					}
				}
			}
			if okNet, err = nc.Verify(net); err != nil {
				return
			}
			// One local stripe, the last: its data is a network parity,
			// so both levels are under it.
			okLoc, err = lc.Verify(locals[len(locals)-1])
		})
		p.ck.noErr(err, "mlec pipeline")
		checkVerified(p.ck, "mlec pipeline network level", okNet)
		checkVerified(p.ck, "mlec pipeline local level", okLoc)
		p.work += float64(stripes*params.KN*params.KL*shardBytes) / 1e6
		p.dig.str("mlec")
		for _, parity := range net[params.KN:] {
			p.dig.blob(parity)
		}
		for _, ls := range locals {
			for _, parity := range ls[params.KL:] {
				p.dig.blob(parity)
			}
		}
		p.codecMB = p.work
	}, nil
}

func checkVerified(ck *checker, what string, ok bool) {
	ck.ok(ok, "%s: parity does not verify against the data", what)
}

// checkXORParity holds parity to the byte-wise XOR of group, computed here
// without the program's kernels.
func checkXORParity(ck *checker, what string, group [][]byte, parity []byte) {
	want := make([]byte, len(parity))
	for _, d := range group {
		for i, b := range d {
			want[i] ^= b
		}
	}
	ck.ok(bytes.Equal(want, parity), "%s: local parity is not the XOR of its group", what)
}

// -------------------------------------------------------------- cluster_repair

// clusterLayoutSeed fixes where cluster_repair's stripes are placed and
// which disks fail. They are part of the workload's definition, like the
// topology and the code, and not of the seeded input: how many disks fail
// before a pool is catastrophic, and how many stripes a repair then
// rebuilds, follow the placement, so a run's seed deciding them made
// alloc_mb differ by 3 % from seed to seed with nothing in the program
// changed. The seed fixes every byte that is written, read and repaired.
const clusterLayoutSeed = 20230911

// clusterInputs is what cluster_repair runs on: the objects, from the
// seed, and the damage applied before every repair.
type clusterInputs struct {
	topo       mlec.Topology
	chunkBytes int
	names      []string
	objects    [][]byte
	// singles are disks failed one per 20-disk group outside the
	// catastrophic enclosure, so most reads are degraded but locally
	// recoverable.
	singles []mlec.DiskID
	// catOrder is the order in which disks of the catastrophic enclosure
	// fail, until one of its pools needs network repair.
	catRack, catEnclosure int
	catOrder              []int
}

func newClusterInputs(seed int64, sc scale) *clusterInputs {
	// The paper's (10+2)/(17+3) code needs 12 racks and 20-disk local
	// stripes; 2 enclosures of 40 disks give clustered pools two per
	// enclosure and declustered pools twice the stripe width.
	in := &clusterInputs{topo: mlec.DefaultTopology(), chunkBytes: 16 << 10}
	in.topo.Racks, in.topo.EnclosuresPerRack, in.topo.DisksPerEnclosure = 12, 2, 40
	objects := 6
	if sc == tiny {
		in.chunkBytes, objects = 1<<10, 1
	}
	params := mlec.DefaultParams()
	data := rand.New(rand.NewSource(seed))
	stripeBytes := params.KN * params.KL * in.chunkBytes // one network stripe of user data
	for i := 0; i < objects; i++ {
		in.names = append(in.names, fmt.Sprintf("obj-%02d", i))
		in.objects = append(in.objects, randomBytes(data, stripeBytes))
	}
	rng := rand.New(rand.NewSource(clusterLayoutSeed))
	in.catRack, in.catEnclosure = rng.Intn(in.topo.Racks), rng.Intn(in.topo.EnclosuresPerRack)
	in.catOrder = rng.Perm(in.topo.DisksPerEnclosure)
	group := params.LocalWidth()
	for r := 0; r < in.topo.Racks; r++ {
		for e := 0; e < in.topo.EnclosuresPerRack; e++ {
			if r == in.catRack && e == in.catEnclosure {
				continue
			}
			for g := 0; g+group <= in.topo.DisksPerEnclosure; g += group {
				in.singles = append(in.singles, mlec.DiskID{Rack: r, Enclosure: e, Disk: g + rng.Intn(group)})
			}
		}
	}
	return in
}

func (in *clusterInputs) userMB() float64 {
	var n int
	for _, o := range in.objects {
		n += len(o)
	}
	return float64(n) / 1e6
}

// build constructs a healthy cluster holding the objects.
func (in *clusterInputs) build(s mlec.Scheme) (*mlec.System, error) {
	sys, err := mlec.NewSystem(mlec.Config{
		Topology: in.topo, Params: mlec.DefaultParams(), Scheme: s, ChunkBytes: in.chunkBytes, Seed: clusterLayoutSeed,
	})
	if err != nil {
		return nil, err
	}
	for i, name := range in.names {
		if err := sys.Write(name, in.objects[i]); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// damage fails the single disks and then disks of the catastrophic
// enclosure until one pool needs network repair; it returns how many
// disks failed there. Should that enclosure hold no stripe, the rack's
// other enclosures follow: every object has a chunk in every rack, so a
// pool turns catastrophic before the rack runs out of disks.
func (in *clusterInputs) damage(sys *mlec.System) (failed int) {
	for _, id := range in.singles {
		sys.FailDisk(id)
	}
	for e := 0; e < in.topo.EnclosuresPerRack; e++ {
		enclosure := (in.catEnclosure + e) % in.topo.EnclosuresPerRack
		for _, d := range in.catOrder {
			sys.FailDisk(mlec.DiskID{Rack: in.catRack, Enclosure: enclosure, Disk: d})
			failed++
			if len(sys.CatastrophicPools()) > 0 {
				return failed
			}
		}
	}
	return failed
}

// readAll reads every object; the caller times it and checks the bytes.
func (in *clusterInputs) readAll(sys *mlec.System) ([][]byte, error) {
	out := make([][]byte, len(in.names))
	for i, name := range in.names {
		data, err := sys.Read(name)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", name, err)
		}
		out[i] = data
	}
	return out, nil
}

func checkReads(ck *checker, what string, got, want [][]byte) {
	if !ck.ok(len(got) == len(want), "%s: %d of %d objects read", what, len(got), len(want)) {
		return
	}
	for i := range want {
		ck.ok(bytes.Equal(got[i], want[i]), "%s: object %d differs from what was written", what, i)
	}
}

func checkScrub(ck *checker, what string, rep mlec.ScrubReport) {
	ck.ok(rep.Clean() && rep.SkippedDegraded == 0 && rep.LocalStripesChecked > 0 && rep.NetworkStripesChecked > 0,
		"%s: scrub after repair %+v", what, rep)
}

// checkTrafficOrder holds the cross-rack bytes of the four methods, in
// AllRepairMethods order (R_ALL, R_FCO, R_HYB, R_MIN) on identical damage,
// to the paper's ordering: each later method moves no more.
func checkTrafficOrder(ck *checker, s mlec.Scheme, xrack []float64) {
	for i := 1; i < len(xrack); i++ {
		ck.ok(xrack[i] <= xrack[i-1] && xrack[i] > 0, "%v: %v moved %.0f cross-rack bytes, %v moved %.0f",
			s, mlec.AllRepairMethods[i], xrack[i], mlec.AllRepairMethods[i-1], xrack[i-1])
	}
}

func prepareClusterRepair(seed int64, sc scale) (passFunc, error) {
	in := newClusterInputs(seed, sc)
	return func(p *passCtx) {
		mb := in.userMB()
		for _, s := range mlec.AllSchemes {
			xrack := make([]float64, 0, len(mlec.AllRepairMethods))
			for mi, method := range mlec.AllRepairMethods {
				tag := fmt.Sprintf("%v %v", s, method)
				// Every method repairs the same damage on its own
				// cluster, rebuilt with the timer stopped.
				var sys *mlec.System
				var err error
				var failed int
				p.untimed("setup", "rebuild "+tag, func() {
					if sys, err = in.build(s); err == nil {
						failed = in.damage(sys)
					}
				})
				if !p.ck.noErr(err, "rebuild "+tag) {
					continue
				}
				rep := sys.Report()
				p.ck.ok(rep.CatastrophicLocalPools > 0 && rep.LostNetworkStripes == 0,
					"%s: damage left %d catastrophic pools and %d lost network stripes", tag, rep.CatastrophicLocalPools, rep.LostNetworkStripes)

				var got [][]byte
				p.timed("cluster", "read_degraded "+tag, func() { got, err = in.readAll(sys) })
				p.ck.noErr(err, "degraded read "+tag)
				checkReads(p.ck, "degraded read "+tag, got, in.objects)
				p.work += mb

				sys.ResetTraffic()
				p.timed("cluster", "repair "+tag, func() { err = sys.Repair(method) })
				p.ck.noErr(err, "repair "+tag)
				tr := sys.Traffic()
				xrack = append(xrack, tr.CrossRackTotal())
				p.dig.str(tag)
				p.dig.i64(int64(failed))
				p.dig.f64(tr.CrossRackRead, tr.CrossRackWritten, tr.LocalRead, tr.LocalWritten)

				if mi < len(mlec.AllRepairMethods)-1 {
					continue
				}
				// After the last method: a healthy read-back and a scrub.
				p.timed("cluster", "read_healthy "+tag, func() { got, err = in.readAll(sys) })
				p.ck.noErr(err, "healthy read "+tag)
				checkReads(p.ck, "healthy read "+tag, got, in.objects)
				var scrub mlec.ScrubReport
				p.timed("cluster", "scrub "+tag, func() { scrub, err = sys.Scrub() })
				p.ck.noErr(err, "scrub "+tag)
				checkScrub(p.ck, tag, scrub)
				p.work += 2 * mb
			}
			if len(xrack) == len(mlec.AllRepairMethods) {
				checkTrafficOrder(p.ck, s, xrack)
			}
		}
		p.codecMB = p.work
	}, nil
}
