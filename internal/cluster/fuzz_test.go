package cluster

import (
	"bytes"
	"errors"
	"testing"

	"mlec/internal/placement"
)

// FuzzClusterReadAfterFailures fails an arbitrary set of disks (bit i of
// failed fails disk i) of a small cluster holding one object of two and
// a half network stripes, under any of the four schemes. Read must then
// return the written bytes, or ErrDataLoss exactly when Report counts a
// lost network stripe; it must leave the traffic meters at zero; and
// Scrub, which skips what is missing, must find no mismatch.
func FuzzClusterReadAfterFailures(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0x07})
	f.Add(uint8(2), []byte{0x07, 0x03, 0, 0x80})
	f.Add(uint8(3), []byte{0xff, 0x0f})
	f.Add(uint8(0), []byte{0x07, 0, 0, 0x07}) // pool 0 of racks 0 and 1: C/C loses the stripe
	f.Fuzz(func(t *testing.T, scheme uint8, failed []byte) {
		s := placement.AllSchemes[int(scheme)%len(placement.AllSchemes)]
		c, err := New(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		data := randomData(5*c.NetStripeDataBytes()/2+13, int64(scheme))
		if err := c.Write("obj", data); err != nil {
			t.Fatal(err)
		}
		for d := range min(len(failed)*8, len(c.disks)) {
			if failed[d/8]>>(d%8)&1 == 1 {
				c.FailDisk(d)
			}
		}
		lost := c.Report().LostNetworkStripes > 0
		c.ResetTraffic()
		got, err := c.Read("obj")
		switch {
		case lost && !errors.Is(err, ErrDataLoss):
			t.Fatalf("%v: a network stripe is lost, Read gave err %v", s, err)
		case !lost && err != nil:
			t.Fatalf("%v: no network stripe is lost, Read failed: %v", s, err)
		case !lost && !bytes.Equal(got, data):
			t.Fatalf("%v: Read returned other bytes than were written", s)
		}
		if c.CrossRackRead != 0 || c.CrossRackWritten != 0 || c.LocalRead != 0 || c.LocalWritten != 0 {
			t.Fatalf("%v: Read moved the traffic meters", s)
		}
		rep, err := c.Scrub()
		if err != nil || !rep.Clean() {
			t.Fatalf("%v: Scrub = %+v, %v", s, rep, err)
		}
	})
}
