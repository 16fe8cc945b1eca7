package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/repair"
)

// pinnedRows is the byte contract of the cluster's read, repair and
// scrub paths, recorded on the tree that still concatenated local
// payloads: for every scheme × repair method on one fixed damage pattern
// that makes a pool catastrophic, the sha256 (first 8 bytes) of the
// degraded and of the healthy reads, the four traffic meters after
// Repair, and the ScrubReport before and after Repair. A change to how
// bytes are gathered, decoded or stored must leave every row where it is.
var pinnedRows = []string{
	"C/C R_ALL degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[24576 12288 64512 15360] scrub=[{54 0 15 0 9} {63 0 21 0 0}]",
	"C/C R_FCO degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[18432 9216 46080 9216] scrub=[{54 0 15 0 9} {63 0 21 0 0}]",
	"C/C R_HYB degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[18432 9216 46080 9216] scrub=[{54 0 15 0 9} {63 0 21 0 0}]",
	"C/C R_MIN degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[6144 3072 46080 15360] scrub=[{54 0 15 0 9} {63 0 21 0 0}]",
	"C/D R_ALL degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[49152 24576 84992 14336] scrub=[{55 0 15 0 8} {63 0 21 0 0}]",
	"C/D R_FCO degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[18432 9216 49152 9216] scrub=[{55 0 15 0 8} {63 0 21 0 0}]",
	"C/D R_HYB degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[10240 5120 45056 13312] scrub=[{55 0 15 0 8} {63 0 21 0 0}]",
	"C/D R_MIN degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[8192 4096 43008 14336] scrub=[{55 0 15 0 8} {63 0 21 0 0}]",
	"D/C R_ALL degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[16384 8192 53248 12288] scrub=[{55 0 13 0 8} {63 0 21 0 0}]",
	"D/C R_FCO degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[12288 6144 40960 8192] scrub=[{55 0 13 0 8} {63 0 21 0 0}]",
	"D/C R_HYB degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[12288 6144 40960 8192] scrub=[{55 0 13 0 8} {63 0 21 0 0}]",
	"D/C R_MIN degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[4096 2048 40960 12288] scrub=[{55 0 13 0 8} {63 0 21 0 0}]",
	"D/D R_ALL degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[57344 28672 107520 18432] scrub=[{52 0 11 0 11} {63 0 21 0 0}]",
	"D/D R_FCO degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[22528 11264 58368 8192] scrub=[{52 0 11 0 11} {63 0 21 0 0}]",
	"D/D R_HYB degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[8192 4096 54272 15360] scrub=[{52 0 11 0 11} {63 0 21 0 0}]",
	"D/D R_MIN degraded=92a40c4cd3c60135 healthy=92a40c4cd3c60135 meters=[4096 2048 54272 17408] scrub=[{52 0 11 0 11} {63 0 21 0 0}]",
}

// pinnedCluster writes the objects into a fresh small cluster and applies
// the damage: disks 0, 1, 2, 8 and 9 of rack 0 and one disk of rack 2.
// Rack 0 then holds a catastrophic pool under every scheme (three losses
// in clustered pool 0, two in pool 1), the methods move different bytes,
// and every network stripe keeps kn recoverable members.
func pinnedCluster(t *testing.T, s placement.Scheme) (*Cluster, []string) {
	t.Helper()
	c, err := New(smallConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Write(name, randomData(i*c.NetStripeDataBytes()+97*i+1, int64(100+i))); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	dpr := c.cfg.Topo.DisksPerRack()
	for _, d := range []int{0, 1, 2, 8, 9, 2*dpr + 7} {
		c.FailDisk(d)
	}
	if len(c.CatastrophicPools()) == 0 || c.Report().LostNetworkStripes != 0 {
		t.Fatalf("%v: damage gave pools %v, report %+v", s, c.CatastrophicPools(), c.Report())
	}
	return c, names
}

// readDigest reads every object and returns the leading 8 bytes of the
// sha256 over all of them, in order.
func readDigest(t *testing.T, c *Cluster, names []string) string {
	t.Helper()
	h := sha256.New()
	for _, name := range names {
		b, err := c.Read(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func scrubRow(t *testing.T, c *Cluster) string {
	t.Helper()
	r, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("{%d %d %d %d %d}", r.LocalStripesChecked, r.LocalParityMismatches, r.NetworkStripesChecked, r.NetworkMismatches, r.SkippedDegraded)
}

func TestClusterPinned(t *testing.T) {
	var got []string
	for _, s := range placement.AllSchemes {
		for _, m := range repair.AllMethods {
			c, names := pinnedCluster(t, s)
			c.ResetTraffic()
			degraded := readDigest(t, c, names)
			if c.CrossRackTotal() != 0 || c.LocalRead != 0 || c.LocalWritten != 0 {
				t.Errorf("%v/%v: a degraded read moved the meters", s, m)
			}
			before := scrubRow(t, c)
			if err := c.Repair(m); err != nil {
				t.Fatalf("%v/%v: repair: %v", s, m, err)
			}
			meters := fmt.Sprintf("[%.0f %.0f %.0f %.0f]", c.CrossRackRead, c.CrossRackWritten, c.LocalRead, c.LocalWritten)
			healthy := readDigest(t, c, names)
			got = append(got, fmt.Sprintf("%v %v degraded=%s healthy=%s meters=%s scrub=[%s %s]",
				s, m, degraded, healthy, meters, before, scrubRow(t, c)))

			// A returned buffer is the caller's: scribbling on it must not
			// reach a stored chunk.
			for _, name := range names {
				b, err := c.Read(name)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]byte(nil), b...)
				for i := range b {
					b[i] ^= 0x5a
				}
				if again, err := c.Read(name); err != nil || !bytes.Equal(again, want) {
					t.Errorf("%v/%v: %s: a second Read saw the first Read's buffer mutated (err %v)", s, m, name, err)
				}
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(pinnedRows, "\n") {
		t.Errorf("cluster pins moved; the tree now gives:\n%s", strings.Join(got, "\n"))
	}
}
