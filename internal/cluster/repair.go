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
	lost []int // chunk indices whose disk lost the chunk
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
// place. Traffic meters record the data movement.
func (c *Cluster) Repair(method repair.Method) error {
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
		if err := c.repairCatastrophicPool(pool, byPool[pool], method); err != nil {
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

// repairCatastrophicPool dispatches on the repair method.
func (c *Cluster) repairCatastrophicPool(pool int, ds []damage, method repair.Method) error {
	switch method {
	case repair.RAll:
		return c.repairAll(pool, ds)
	case repair.RFCO:
		return c.repairFailedChunksOnly(ds)
	case repair.RHYB:
		return c.repairHybrid(ds)
	case repair.RMin:
		return c.repairMinimum(ds)
	default:
		return fmt.Errorf("cluster: unknown repair method %v", method)
	}
}

// repairAll rebuilds every local stripe that lives in the pool — damaged
// or not — from the network level, as a black-box RBOD replacement would.
func (c *Cluster) repairAll(pool int, ds []damage) error {
	_ = ds // R_ALL ignores damage detail by design: it cannot see it.
	// The pool hosts local stripes from potentially every object;
	// enumerate them all, in name order so the traffic meters accumulate
	// deterministically.
	for _, obj := range c.sortedObjects() {
		for ns := range obj.stripes {
			meta := &obj.stripes[ns]
			for li := range meta.locals {
				if meta.locals[li].pool != pool {
					continue
				}
				ref := stripeRef{obj, ns, li}
				if err := c.rebuildStripeViaNetwork(ref, meta.locals[li], allChunks(c.cfg.Params.LocalWidth())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func allChunks(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i
	}
	return out
}

// repairFailedChunksOnly rebuilds exactly the lost chunks of each
// damaged stripe over the network.
func (c *Cluster) repairFailedChunksOnly(ds []damage) error {
	for _, d := range ds {
		if err := c.rebuildStripeViaNetwork(d.ref, d.meta, d.lost); err != nil {
			return err
		}
	}
	return nil
}

// repairHybrid: lost stripes via network, the rest locally.
func (c *Cluster) repairHybrid(ds []damage) error {
	for _, d := range ds {
		if len(d.lost) > c.cfg.Params.PL {
			if err := c.rebuildStripeViaNetwork(d.ref, d.meta, d.lost); err != nil {
				return err
			}
		} else if err := c.repairLocalStripe(d); err != nil {
			return err
		}
	}
	return nil
}

// repairMinimum: stage 1 rebuilds just enough chunks of each lost stripe
// over the network to make it locally recoverable (data chunks first);
// stage 2 finishes everything locally.
func (c *Cluster) repairMinimum(ds []damage) error {
	pl := c.cfg.Params.PL
	for _, d := range ds {
		if len(d.lost) > pl {
			need := len(d.lost) - pl
			// Pick lost data chunks first: network payloads only carry
			// data ranges; len(lost data) ≥ need always holds because
			// at most pl parity chunks exist.
			var viaNet []int
			for _, ci := range d.lost {
				if ci < c.cfg.Params.KL && len(viaNet) < need {
					viaNet = append(viaNet, ci)
				}
			}
			if len(viaNet) < need {
				return fmt.Errorf("cluster: internal: cannot select %d network chunks from %v", need, d.lost)
			}
			if err := c.rebuildStripeViaNetwork(d.ref, d.meta, viaNet); err != nil {
				return err
			}
			// Remaining losses are now ≤ pl.
			remaining := damage{ref: d.ref, meta: d.meta}
			sel := map[int]bool{}
			for _, ci := range viaNet {
				sel[ci] = true
			}
			for _, ci := range d.lost {
				if !sel[ci] {
					remaining.lost = append(remaining.lost, ci)
				}
			}
			if len(remaining.lost) > 0 {
				if err := c.repairLocalStripe(remaining); err != nil {
					return err
				}
			}
		} else if err := c.repairLocalStripe(d); err != nil {
			return err
		}
	}
	return nil
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
