// Package cluster is an in-memory, byte-accurate MLEC storage system: a
// miniature datacenter whose disks hold real chunk bytes, with the full
// write path (two-level encoding), degraded reads, disk failures, and all
// four repair methods of the paper moving real data and metering actual
// cross-rack traffic. Reads, scrubs and network repairs work on views of
// the stored chunks, one chunk column at a time, and copy payload bytes
// only into the chunks they rebuild and the one buffer Read returns.
//
// It serves two purposes: it is the executable core a downstream user
// would adopt (see examples/), and it validates the analytic repair
// models end-to-end — the byte counters measured here must reproduce the
// R_ALL : R_FCO : R_HYB : R_MIN traffic ratios that internal/repair
// derives analytically and the paper reports in Figure 8.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/rs"
	"mlec/internal/topology"
)

// Config describes a cluster.
type Config struct {
	Topo   topology.Config
	Params placement.Params
	Scheme placement.Scheme
	// ChunkBytes is the EC chunk size for stored objects (defaults to
	// Topo.ChunkSizeBytes).
	ChunkBytes int
	// Seed drives the pseudorandom declustered placement.
	Seed int64
}

// Cluster is the storage system. Not safe for concurrent use.
type Cluster struct {
	cfg    Config
	layout *placement.Layout
	netC   *rs.Codec // (kn+pn) over local-stripe payloads
	locC   *rs.Codec // (kl+pl) over chunks
	rng    *rand.Rand

	disks   []*disk
	objects map[string]*object

	// Traffic meters (bytes).
	CrossRackRead    float64
	CrossRackWritten float64
	LocalRead        float64
	LocalWritten     float64

	nextNetPool int // round-robin cursor for network-clustered writes
}

type disk struct {
	failed bool
	chunks map[chunkKey][]byte
}

type chunkKey struct {
	obj       string
	netStripe int
	localIdx  int // member within the network stripe, 0..kn+pn-1
	chunkIdx  int // member within the local stripe, 0..kl+pl-1
}

// localStripeMeta records where one local stripe's chunks live.
type localStripeMeta struct {
	pool  int
	disks []int // global disk index per chunk
}

type netStripeMeta struct {
	locals []localStripeMeta // kn+pn
}

type object struct {
	name    string
	size    int
	stripes []netStripeMeta
}

// ErrDataLoss is returned when a read cannot be satisfied by any repair
// path (a lost network stripe).
var ErrDataLoss = errors.New("cluster: unrecoverable data loss")

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	l, err := placement.NewLayout(cfg.Topo, cfg.Params, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = int(cfg.Topo.ChunkSizeBytes)
	}
	netC, err := rs.New(cfg.Params.KN, cfg.Params.PN)
	if err != nil {
		return nil, err
	}
	locC, err := rs.New(cfg.Params.KL, cfg.Params.PL)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		layout:  l,
		netC:    netC,
		locC:    locC,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		disks:   make([]*disk, cfg.Topo.TotalDisks()),
		objects: make(map[string]*object),
	}
	for i := range c.disks {
		c.disks[i] = &disk{chunks: make(map[chunkKey][]byte)}
	}
	return c, nil
}

// Layout exposes the placement geometry.
func (c *Cluster) Layout() *placement.Layout { return c.layout }

// NetStripeDataBytes returns the user-data capacity of one network
// stripe: kn·kl·chunk.
func (c *Cluster) NetStripeDataBytes() int {
	return c.cfg.Params.KN * c.cfg.Params.KL * c.cfg.ChunkBytes
}

// Write stores an object, encoding it through both MLEC levels and
// placing chunks according to the scheme. Zero-length data is rejected.
func (c *Cluster) Write(name string, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("cluster: empty object %q", name)
	}
	if _, ok := c.objects[name]; ok {
		return fmt.Errorf("cluster: object %q exists", name)
	}
	obj := &object{name: name, size: len(data)}
	stripeBytes := c.NetStripeDataBytes()
	for off, ns := 0, 0; off < len(data); off, ns = off+stripeBytes, ns+1 {
		end := off + stripeBytes
		var payload []byte
		if end <= len(data) {
			payload = data[off:end]
		} else {
			payload = make([]byte, stripeBytes)
			copy(payload, data[off:])
		}
		meta, err := c.writeNetStripe(name, ns, payload)
		if err != nil {
			return err
		}
		obj.stripes = append(obj.stripes, meta)
	}
	c.objects[name] = obj
	return nil
}

// writeNetStripe encodes one full network stripe and stores its chunks.
func (c *Cluster) writeNetStripe(name string, ns int, data []byte) (netStripeMeta, error) {
	p := c.cfg.Params
	payloadBytes := p.KL * c.cfg.ChunkBytes
	// Network-level shards: kn data payloads + pn parity payloads.
	shards := make([][]byte, p.NetworkWidth())
	for i := 0; i < p.KN; i++ {
		shards[i] = data[i*payloadBytes : (i+1)*payloadBytes]
	}
	for i := p.KN; i < p.NetworkWidth(); i++ {
		shards[i] = make([]byte, payloadBytes)
	}
	if err := c.netC.Encode(shards); err != nil {
		return netStripeMeta{}, err
	}
	pools, err := c.choosePools()
	if err != nil {
		return netStripeMeta{}, err
	}
	meta := netStripeMeta{locals: make([]localStripeMeta, p.NetworkWidth())}
	for li, pool := range pools {
		lm, err := c.writeLocalStripe(name, ns, li, pool, shards[li])
		if err != nil {
			return netStripeMeta{}, err
		}
		meta.locals[li] = lm
	}
	return meta, nil
}

// writeLocalStripe encodes one payload into kl+pl chunks on the pool's
// disks.
func (c *Cluster) writeLocalStripe(name string, ns, li, pool int, payload []byte) (localStripeMeta, error) {
	p := c.cfg.Params
	chunks := make([][]byte, p.LocalWidth())
	for i := 0; i < p.KL; i++ {
		chunks[i] = payload[i*c.cfg.ChunkBytes : (i+1)*c.cfg.ChunkBytes]
	}
	for i := p.KL; i < p.LocalWidth(); i++ {
		chunks[i] = make([]byte, c.cfg.ChunkBytes)
	}
	if err := c.locC.Encode(chunks); err != nil {
		return localStripeMeta{}, err
	}
	disks, err := c.chooseDisks(pool)
	if err != nil {
		return localStripeMeta{}, err
	}
	lm := localStripeMeta{pool: pool, disks: disks}
	for ci, d := range disks {
		buf := make([]byte, len(chunks[ci]))
		copy(buf, chunks[ci])
		c.disks[d].chunks[chunkKey{name, ns, li, ci}] = buf
	}
	return lm, nil
}

// choosePools selects kn+pn local pools in distinct racks per the
// network-level placement kind.
func (c *Cluster) choosePools() ([]int, error) {
	l := c.layout
	p := c.cfg.Params
	if c.layout.Scheme.Network == placement.Clustered {
		// Round-robin across network pools; members are the aligned
		// pools of the pool's rack group.
		np := c.nextNetPool
		c.nextNetPool = (c.nextNetPool + 1) % l.TotalNetworkPools()
		group := np / l.LocalPoolsPerRack()
		pos := np % l.LocalPoolsPerRack()
		pools := make([]int, p.NetworkWidth())
		for i := 0; i < p.NetworkWidth(); i++ {
			rack := group*p.NetworkWidth() + i
			pools[i] = rack*l.LocalPoolsPerRack() + pos
		}
		return pools, nil
	}
	// Declustered: kn+pn distinct racks, one uniform pool in each.
	racks := c.rng.Perm(l.Topo.Racks)[:p.NetworkWidth()]
	pools := make([]int, p.NetworkWidth())
	for i, r := range racks {
		pools[i] = r*l.LocalPoolsPerRack() + c.rng.Intn(l.LocalPoolsPerRack())
	}
	return pools, nil
}

// chooseDisks selects kl+pl distinct disks within the pool per the local
// placement kind.
func (c *Cluster) chooseDisks(pool int) ([]int, error) {
	l := c.layout
	p := c.cfg.Params
	size := l.LocalPoolSize()
	base := c.poolFirstDisk(pool)
	if l.Scheme.Local == placement.Clustered {
		disks := make([]int, p.LocalWidth())
		for i := range disks {
			disks[i] = base + i
		}
		return disks, nil
	}
	sel := c.rng.Perm(size)[:p.LocalWidth()]
	disks := make([]int, p.LocalWidth())
	for i, s := range sel {
		disks[i] = base + s
	}
	return disks, nil
}

// poolFirstDisk returns the global index of the pool's first disk.
func (c *Cluster) poolFirstDisk(pool int) int {
	l := c.layout
	enclosure := pool / l.LocalPoolsPerEnclosure()
	within := pool % l.LocalPoolsPerEnclosure()
	return enclosure*l.Topo.DisksPerEnclosure + within*l.LocalPoolSize()
}

// FailDisk marks a disk failed and discards its contents.
func (c *Cluster) FailDisk(global int) {
	d := c.disks[global]
	d.failed = true
	d.chunks = make(map[chunkKey][]byte)
}

// FailDiskAt is FailDisk addressed by physical coordinates.
func (c *Cluster) FailDiskAt(id topology.DiskID) {
	c.FailDisk(c.cfg.Topo.Index(id))
}

// ReplaceDisk brings a failed disk back empty (a fresh spare).
func (c *Cluster) ReplaceDisk(global int) {
	c.disks[global].failed = false
}

// rackOfDisk returns the rack of a global disk index.
func (c *Cluster) rackOfDisk(global int) int { return c.cfg.Topo.RackOf(global) }

// unmetered is the destination rack of a user read: the traffic meters
// count repair bytes only.
const unmetered = -1

// readChunk fetches a chunk if its disk is alive, metering traffic
// relative to destRack (reads crossing racks count as cross-rack).
func (c *Cluster) readChunk(key chunkKey, from int, destRack int) ([]byte, bool) {
	b, ok := c.readChunkPeek(key, from)
	switch {
	case !ok || destRack == unmetered:
	case c.rackOfDisk(from) == destRack:
		c.LocalRead += float64(len(b))
	default:
		c.CrossRackRead += float64(len(b))
	}
	return b, ok
}

// writeChunk stores a chunk, metering traffic relative to srcRack. The
// disk takes data as it is: every caller hands over a buffer of its own
// (freshly rebuilt, or moved off another disk).
func (c *Cluster) writeChunk(key chunkKey, to int, srcRack int, data []byte) {
	c.disks[to].chunks[key] = data
	if c.rackOfDisk(to) == srcRack {
		c.LocalWritten += float64(len(data))
	} else {
		c.CrossRackWritten += float64(len(data))
	}
}

// CrossRackTotal returns the total cross-rack bytes moved so far.
func (c *Cluster) CrossRackTotal() float64 { return c.CrossRackRead + c.CrossRackWritten }

// ResetTraffic zeroes the meters.
func (c *Cluster) ResetTraffic() {
	c.CrossRackRead, c.CrossRackWritten = 0, 0
	c.LocalRead, c.LocalWritten = 0, 0
}

// Read returns an object's data, reconstructing through local and then
// network parities as needed (degraded read): views of the data chunks of
// members 0…kn−1, a lost chunk rebuilt in its member if that lost ≤ pl,
// the network parity members touched only for a lost data member, and one
// copy into a buffer of the caller's own. State and meters are unchanged.
func (c *Cluster) Read(name string) ([]byte, error) {
	obj, ok := c.objects[name]
	if !ok {
		return nil, fmt.Errorf("cluster: no object %q", name)
	}
	p := c.cfg.Params
	views := make([][]byte, 0, len(obj.stripes)*p.KN*p.KL)
	for ns, meta := range obj.stripes {
		members, err := c.gather(obj.name, ns, meta, -1, allChunks(p.KL), false)
		if err != nil {
			return nil, err
		}
		if err := c.decodeColumns(members, p.KN); err != nil {
			return nil, err
		}
		for _, m := range members[:p.KN] {
			views = append(views, m...)
		}
	}
	return bytes.Join(views, nil)[:obj.size], nil
}

// gather returns, indexed by member, views of the chunks cis of the
// first kn members of a network stripe, taken in member order with skip
// passed over, that are recoverable; every other member gets nil entries.
// It returns ErrDataLoss when fewer than kn are recoverable. With meter,
// every member tried meters its reads (memberViews) and every member
// taken ships its len(cis) chunks across racks.
func (c *Cluster) gather(name string, ns int, meta netStripeMeta, skip int, cis []int, meter bool) ([][][]byte, error) {
	members := make([][][]byte, c.cfg.Params.NetworkWidth())
	have := 0
	for li := range members {
		if have < c.cfg.Params.KN && li != skip {
			members[li] = c.memberViews(name, ns, li, meta.locals[li], cis, meter)
		}
		if members[li] == nil {
			members[li] = make([][]byte, len(cis))
			continue
		}
		have++
		if meter {
			c.CrossRackRead += float64(len(cis) * c.cfg.ChunkBytes) // shipped to the coordinator
		}
	}
	if have < c.cfg.Params.KN {
		return nil, ErrDataLoss
	}
	return members, nil
}

// memberViews returns views of the data chunks cis of one member local
// stripe, or nil when it lost more than pl chunks. A missing chunk is
// rebuilt inside the member into a buffer of its own and never stored.
// With meter it meters what a repair reads in the member's rack: the
// chunks cis when all are there, else every surviving chunk.
func (c *Cluster) memberViews(name string, ns, li int, lm localStripeMeta, cis []int, meter bool) [][]byte {
	rack := unmetered
	if meter {
		rack = c.layout.RackOfPool(lm.pool)
	}
	views, whole := make([][]byte, len(cis)), true
	for i := 0; i < len(cis) && whole; i++ {
		views[i], whole = c.readChunkPeek(chunkKey{name, ns, li, cis[i]}, lm.disks[cis[i]])
	}
	if whole {
		for i := 0; meter && i < len(cis); i++ {
			c.readChunk(chunkKey{name, ns, li, cis[i]}, lm.disks[cis[i]], rack) // meters the read
		}
		return views
	}
	chunks := make([][]byte, c.cfg.Params.LocalWidth())
	for ci, d := range lm.disks {
		chunks[ci], _ = c.readChunk(chunkKey{name, ns, li, ci}, d, rack)
	}
	if c.locC.ReconstructData(chunks) != nil { // the local code is MDS: more than pl lost
		return nil
	}
	for i, ci := range cis {
		views[i] = chunks[ci]
	}
	return views
}

// decodeColumns fills in the views of members below upto, one chunk
// column at a time: column i is the i-th view of every member, nil where
// the member was not gathered. A network stripe's shard is the
// concatenation of one local stripe's data chunks and the code works on
// each byte position alone, so decoding the columns gives the bytes that
// decoding whole payloads would. A rebuilt chunk is a new buffer.
func (c *Cluster) decodeColumns(members [][][]byte, upto int) error {
	decode := c.netC.ReconstructData
	if upto > c.cfg.Params.KN {
		decode = c.netC.Reconstruct // a network parity member is wanted
	}
	col := make([][]byte, len(members))
	for i := range members[0] {
		for li, m := range members {
			col[li] = m[i]
		}
		if err := decode(col); err != nil {
			return ErrDataLoss
		}
		for li := range upto {
			members[li][i] = col[li]
		}
	}
	return nil
}

// VerifyAll re-reads every object and checks it against nothing being
// lost; it returns the first error encountered.
func (c *Cluster) VerifyAll(expected map[string][]byte) error {
	names := make([]string, 0, len(expected))
	for name := range expected {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := expected[name]
		got, err := c.Read(name)
		if err != nil {
			return fmt.Errorf("cluster: object %q: %w", name, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cluster: object %q corrupted", name)
		}
	}
	return nil
}

// Repair method re-exported for caller convenience.
type Method = repair.Method

// Delete removes an object and frees its chunks from every disk.
func (c *Cluster) Delete(name string) error {
	obj, ok := c.objects[name]
	if !ok {
		return fmt.Errorf("cluster: no object %q", name)
	}
	for ns := range obj.stripes {
		meta := &obj.stripes[ns]
		for li := range meta.locals {
			for ci, d := range meta.locals[li].disks {
				delete(c.disks[d].chunks, chunkKey{name, ns, li, ci})
			}
		}
	}
	delete(c.objects, name)
	return nil
}

// Objects returns the stored object names in ascending order.
func (c *Cluster) Objects() []string {
	out := make([]string, 0, len(c.objects))
	for name := range c.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ObjectSize returns an object's user-data length.
func (c *Cluster) ObjectSize(name string) (int, error) {
	obj, ok := c.objects[name]
	if !ok {
		return 0, fmt.Errorf("cluster: no object %q", name)
	}
	return obj.size, nil
}
