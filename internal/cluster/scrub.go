package cluster

import "fmt"

// ScrubReport summarizes a full-cluster consistency scrub.
type ScrubReport struct {
	LocalStripesChecked   int
	LocalParityMismatches int
	NetworkStripesChecked int
	NetworkMismatches     int
	// SkippedDegraded counts stripes skipped because chunks are missing
	// (scrub verifies parity consistency, not availability — missing
	// chunks are the repairer's job and show up in Report()).
	SkippedDegraded int
}

// Clean reports whether the scrub found no inconsistencies.
func (r ScrubReport) Clean() bool {
	return r.LocalParityMismatches == 0 && r.NetworkMismatches == 0
}

// Scrub re-verifies every fully-present local stripe against its local
// parities and every fully-present network stripe against its network
// parities — the background consistency check a production system runs
// continuously. Both checks run on views of the stored chunks, the
// network one a chunk column at a time (see decodeColumns); a network
// stripe with any bad column counts once. It never modifies state and
// meters no repair traffic.
func (c *Cluster) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	p := c.cfg.Params
	members, col := make([][][]byte, p.NetworkWidth()), make([][]byte, p.NetworkWidth())
	for _, obj := range c.sortedObjects() {
		for ns := range obj.stripes {
			meta := &obj.stripes[ns]
			netComplete := true
			for li := range meta.locals {
				lm := meta.locals[li]
				chunks := make([][]byte, p.LocalWidth())
				complete := true
				for ci, d := range lm.disks {
					b, ok := c.readChunkPeek(chunkKey{obj.name, ns, li, ci}, d)
					if !ok {
						complete = false
						break
					}
					chunks[ci] = b
				}
				if !complete {
					rep.SkippedDegraded++
					netComplete = false
					continue
				}
				rep.LocalStripesChecked++
				ok, err := c.locC.Verify(chunks)
				if err != nil {
					return rep, fmt.Errorf("cluster: scrub %s/%d/%d: %w", obj.name, ns, li, err)
				}
				if !ok {
					rep.LocalParityMismatches++
				}
				members[li] = chunks[:p.KL]
			}
			if !netComplete {
				continue
			}
			rep.NetworkStripesChecked++
			for ci := range p.KL {
				for li, m := range members {
					col[li] = m[ci]
				}
				ok, err := c.netC.Verify(col)
				if err != nil {
					return rep, fmt.Errorf("cluster: scrub %s/%d net: %w", obj.name, ns, err)
				}
				if !ok {
					rep.NetworkMismatches++
					break
				}
			}
		}
	}
	return rep, nil
}

// CorruptChunk flips a byte of a stored chunk in place (test/fault
// injection hook for scrubbing: silent corruption, not a disk failure).
func (c *Cluster) CorruptChunk(objName string, netStripe, localIdx, chunkIdx int) error {
	obj, ok := c.objects[objName]
	if !ok {
		return fmt.Errorf("cluster: no object %q", objName)
	}
	if netStripe < 0 || netStripe >= len(obj.stripes) || localIdx < 0 || localIdx >= len(obj.stripes[netStripe].locals) {
		return fmt.Errorf("cluster: stripe out of range")
	}
	lm := obj.stripes[netStripe].locals[localIdx]
	if chunkIdx < 0 || chunkIdx >= len(lm.disks) {
		return fmt.Errorf("cluster: chunk out of range")
	}
	key := chunkKey{objName, netStripe, localIdx, chunkIdx}
	b, ok := c.disks[lm.disks[chunkIdx]].chunks[key]
	if !ok {
		return fmt.Errorf("cluster: chunk not present")
	}
	b[0] ^= 0xff
	return nil
}
