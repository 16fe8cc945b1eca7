package cluster

import (
	"fmt"
	"sort"

	"mlec/internal/repair"
)

// stripeRef identifies one local stripe of one object.
type stripeRef struct {
	obj *object
	ns  int // network stripe index
	li  int // local index within the network stripe
}

// damage summarizes one local stripe's current chunk losses.
type damage struct {
	ref  stripeRef
	meta localStripeMeta
	// lost holds the chunk indices whose disk lost the chunk, ascending:
	// the network stage takes a prefix, so R_MIN's share is data chunks.
	lost []int
}

// scanDamage walks all stripes and groups damaged local stripes by pool.
func (c *Cluster) scanDamage() map[int][]damage {
	out := make(map[int][]damage)
	for _, obj := range c.sortedObjects() {
		for ns := range obj.stripes {
			meta := &obj.stripes[ns]
			for li := range meta.locals {
				lm := meta.locals[li]
				var lost []int
				for ci, d := range lm.disks {
					if c.disks[d].failed {
						lost = append(lost, ci)
					} else if _, ok := c.disks[d].chunks[chunkKey{obj.name, ns, li, ci}]; !ok {
						lost = append(lost, ci)
					}
				}
				if len(lost) > 0 {
					out[lm.pool] = append(out[lm.pool], damage{
						ref:  stripeRef{obj, ns, li},
						meta: lm,
						lost: lost,
					})
				}
			}
		}
	}
	return out
}

// CatastrophicPools returns the pools that currently host at least one
// lost local stripe (> pl lost chunks) — Table 1's "catastrophic
// (locally-unrecoverable) local pool".
func (c *Cluster) CatastrophicPools() []int {
	var pools []int
	for pool, ds := range c.scanDamage() {
		for _, d := range ds {
			if len(d.lost) > c.cfg.Params.PL {
				pools = append(pools, pool)
				break
			}
		}
	}
	sort.Ints(pools)
	return pools
}

// Repair restores all damage in the cluster: catastrophic pools are
// repaired with the given method (R_ALL…R_MIN), remaining locally-
// recoverable damage is repaired locally. Failed disks are replaced in
// place. Traffic meters record the data movement. A method outside the
// four returns an error wrapping repair.ErrUnknownMethod before any
// state changes.
func (c *Cluster) Repair(method repair.Method) error {
	if err := method.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	byPool := c.scanDamage()
	catastrophic := map[int]bool{}
	for pool, ds := range byPool {
		for _, d := range ds {
			if len(d.lost) > c.cfg.Params.PL {
				catastrophic[pool] = true
				break
			}
		}
	}
	// Replace failed disks up front so rebuilt chunks have a home. The
	// read paths below never read from a replaced-but-empty disk
	// because lost chunks were discarded with the failure.
	for i, d := range c.disks {
		if d.failed {
			c.ReplaceDisk(i)
		}
	}
	// Repair pools in ascending id order: the traffic meters accumulate
	// floats per repaired chunk, so repair order must be deterministic
	// for byte-identical meters run to run.
	for _, pool := range sortedKeys(catastrophic) {
		ds := byPool[pool]
		if method.Blind() {
			ds = c.wholePool(pool)
		}
		if err := c.repairCatastrophicPool(ds, method); err != nil {
			return err
		}
	}
	// Locally-recoverable pools: plain local repair.
	for _, pool := range sortedKeys(byPool) {
		if catastrophic[pool] {
			continue
		}
		for _, d := range byPool[pool] {
			if err := c.repairLocalStripe(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairCatastrophicPool runs the method's two stages on each stripe of
// a catastrophic pool: the network stage rebuilds the method's share of
// the stripe's lost chunks, lowest index first, and local repair the
// rest (at most pl of them).
func (c *Cluster) repairCatastrophicPool(ds []damage, method repair.Method) error {
	for _, d := range ds {
		n := method.NetworkChunks(len(d.lost), c.cfg.Params.PL)
		if n > 0 {
			if err := c.rebuildStripeViaNetwork(d.ref, d.meta, d.lost[:n]); err != nil {
				return err
			}
		}
		if n < len(d.lost) {
			d.lost = d.lost[n:]
			if err := c.repairLocalStripe(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// wholePool lists every local stripe that lives in the pool, damaged or
// not, with all its chunks lost: what a blind method rebuilds, as a
// black-box RBOD replacement would. The pool hosts local stripes from
// potentially every object; they come in name order so the traffic
// meters accumulate deterministically.
func (c *Cluster) wholePool(pool int) []damage {
	all := allChunks(c.cfg.Params.LocalWidth())
	var ds []damage
	for _, obj := range c.sortedObjects() {
		for ns := range obj.stripes {
			for li, lm := range obj.stripes[ns].locals {
				if lm.pool == pool {
					ds = append(ds, damage{ref: stripeRef{obj, ns, li}, meta: lm, lost: all})
				}
			}
		}
	}
	return ds
}

func allChunks(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i
	}
	return out
}

// rebuildStripeViaNetwork reconstructs the given chunk indices of one
// local stripe using network-level parity: for each lost data chunk it
// reads the same chunk column of kn other members (shipping those bytes
// across racks), decodes the column, and stores the rebuilt chunk in the
// stripe's rack (one cross-rack write per rebuilt byte). Lost parity
// chunks are then re-encoded inside the rack from the (now complete)
// data chunks.
func (c *Cluster) rebuildStripeViaNetwork(ref stripeRef, lm localStripeMeta, chunkIdxs []int) error {
	p := c.cfg.Params
	var dataIdxs, parityIdxs []int
	for _, ci := range chunkIdxs {
		if ci < p.KL {
			dataIdxs = append(dataIdxs, ci)
		} else {
			parityIdxs = append(parityIdxs, ci)
		}
	}
	if len(dataIdxs) > 0 {
		members, err := c.gather(ref.obj.name, ref.ns, ref.obj.stripes[ref.ns], ref.li, dataIdxs, true)
		if err != nil {
			return err
		}
		if err := c.decodeColumns(members, ref.li+1); err != nil {
			return err
		}
		for i, ci := range dataIdxs {
			c.writeRebuiltChunk(chunkKey{ref.obj.name, ref.ns, ref.li, ci}, lm, ci, -1, members[ref.li][i])
		}
	}
	if len(parityIdxs) > 0 {
		if err := c.reencodeParities(ref, lm, parityIdxs); err != nil {
			return err
		}
	}
	return nil
}

// readChunkPeek checks chunk presence without metering.
func (c *Cluster) readChunkPeek(key chunkKey, from int) ([]byte, bool) {
	d := c.disks[from]
	if d.failed {
		return nil, false
	}
	b, ok := d.chunks[key]
	return b, ok
}

// reencodeParities rebuilds lost parity chunks inside the stripe's rack
// from its kl data chunks (local reads + local writes).
func (c *Cluster) reencodeParities(ref stripeRef, lm localStripeMeta, parityIdxs []int) error {
	p := c.cfg.Params
	rack := c.layout.RackOfPool(lm.pool)
	chunks := make([][]byte, p.LocalWidth())
	for ci := 0; ci < p.KL; ci++ {
		b, ok := c.readChunk(chunkKey{ref.obj.name, ref.ns, ref.li, ci}, lm.disks[ci], rack)
		if !ok {
			return fmt.Errorf("cluster: data chunk %d missing during parity re-encode", ci)
		}
		chunks[ci] = b
	}
	for ci := p.KL; ci < p.LocalWidth(); ci++ {
		chunks[ci] = make([]byte, c.cfg.ChunkBytes)
	}
	if err := c.locC.Encode(chunks); err != nil {
		return err
	}
	for _, ci := range parityIdxs {
		c.writeRebuiltChunk(chunkKey{ref.obj.name, ref.ns, ref.li, ci}, lm, ci, rack, chunks[ci])
	}
	return nil
}

// repairLocalStripe rebuilds ≤ pl lost chunks inside the rack using
// local parity (kl reads + writes, all intra-rack).
func (c *Cluster) repairLocalStripe(d damage) error {
	p := c.cfg.Params
	if len(d.lost) > p.PL {
		return fmt.Errorf("cluster: stripe with %d losses is not locally recoverable", len(d.lost))
	}
	rack := c.layout.RackOfPool(d.meta.pool)
	chunks := make([][]byte, p.LocalWidth())
	lostSet := map[int]bool{}
	for _, ci := range d.lost {
		lostSet[ci] = true
	}
	for ci := 0; ci < p.LocalWidth(); ci++ {
		if lostSet[ci] {
			continue
		}
		if b, ok := c.readChunk(chunkKey{d.ref.obj.name, d.ref.ns, d.ref.li, ci}, d.meta.disks[ci], rack); ok {
			chunks[ci] = b
		}
	}
	if err := c.locC.Reconstruct(chunks); err != nil {
		return ErrDataLoss
	}
	for _, ci := range d.lost {
		c.writeRebuiltChunk(chunkKey{d.ref.obj.name, d.ref.ns, d.ref.li, ci}, d.meta, ci, rack, chunks[ci])
	}
	return nil
}
