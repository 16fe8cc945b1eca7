package repair

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mlec/internal/placement"
)

// pinnedAnalyses is the bit contract of AnalyzeProfile, recorded on the
// tree where each method still had its own branch: for every scheme ×
// method under the paper's burst injection, and for every method on the
// mixed Cp profile of TestAnalyzeProfileGeneral, the float64 bits of the
// two repaired volumes, the cross-rack traffic and the two stage
// durations.
var pinnedAnalyses = []string{
	"C/C R_ALL net=42f6bcc41e900000 loc=0000000000000000 xrack=432f438daa060000 neth=407bc71c71c71c72 loch=0000000000000000",
	"C/C R_FCO net=42d2309ce5400000 loc=0000000000000000 xrack=430902d7bb380000 neth=405638e38e38e38e loch=0000000000000000",
	"C/C R_HYB net=42d2309ce5400000 loc=0000000000000000 xrack=430902d7bb380000 neth=405638e38e38e38e loch=0000000000000000",
	"C/C R_MIN net=42b2309ce5400000 loc=42cb48eb57e00000 xrack=42e902d7bb380000 neth=403638e38e38e38e loch=405a0aaaaaaaaaab",
	"C/D R_ALL net=43210d9316ec0000 loc=0000000000000000 xrack=435772aa3f848000 neth=40a4d55555555555 loch=0000000000000000",
	"C/D R_FCO net=42d2309ce540004f loc=0000000000000000 xrack=430902d7bb38006d neth=405638e38e38e3ef loch=0000000000000000",
	"C/D R_HYB net=42507a9e71f22cb0 loc=42d2202246ce0e22 xrack=4286a899dcacfd72 neth=3fd421ccf5c25876 loch=405579b77ebdcb9b",
	"C/D R_MIN net=42307a9e71f22cb0 loc=42d22c7e3da383c4 xrack=4266a899dcacfd72 neth=3fb421ccf5c25876 loch=4055885c37f61212",
	"D/C R_ALL net=42f6bcc41e900000 loc=0000000000000000 xrack=432f438daa060000 neth=40545ed097b425ed loch=0000000000000000",
	"D/C R_FCO net=42d2309ce5400000 loc=0000000000000000 xrack=430902d7bb380000 neth=40304bda12f684bd loch=0000000000000000",
	"D/C R_HYB net=42d2309ce5400000 loc=0000000000000000 xrack=430902d7bb380000 neth=40304bda12f684bd loch=0000000000000000",
	"D/C R_MIN net=42b2309ce5400000 loc=42cb48eb57e00000 xrack=42e902d7bb380000 neth=40104bda12f684bd loch=405a0aaaaaaaaaab",
	"D/D R_ALL net=43210d9316ec0000 loc=0000000000000000 xrack=435772aa3f848000 neth=407e8e38e38e38e2 loch=0000000000000000",
	"D/D R_FCO net=42d2309ce540004f loc=0000000000000000 xrack=430902d7bb38006d neth=40304bda12f68504 loch=0000000000000000",
	"D/D R_HYB net=42507a9e71f22cb0 loc=42d2202246ce0e22 xrack=4286a899dcacfd72 neth=3fad86e857614e8a loch=405579b77ebdcb9b",
	"D/D R_MIN net=42307a9e71f22cb0 loc=42d22c7e3da383c4 xrack=4266a899dcacfd72 neth=3f8d86e857614e8a loch=4055885c37f61212",
	"mixed R_ALL net=42f6bcc41e900000 loc=0000000000000000 xrack=432f438daa060000 neth=407bc71c71c71c72 loch=0000000000000000",
	"mixed R_FCO net=42cb48eb57e00000 loc=0000000000000000 xrack=4302c221cc6a0000 neth=4050aaaaaaaaaaab loch=0000000000000000",
	"mixed R_HYB net=42c2309ce5400000 loc=42b2309ce5400000 xrack=42f902d7bb380000 neth=404638e38e38e38e loch=40415c71c71c71c7",
	"mixed R_MIN net=42a2309ce5400000 loc=42c6bcc41e900000 xrack=42d902d7bb380000 neth=402638e38e38e38e loch=4055b38e38e38e39",
}

func analysisRow(label string, an Analysis) string {
	return fmt.Sprintf("%s %v net=%016x loc=%016x xrack=%016x neth=%016x loch=%016x",
		label, an.Method,
		math.Float64bits(an.NetworkRepairBytes), math.Float64bits(an.LocalRepairBytes),
		math.Float64bits(an.CrossRackTrafficBytes),
		math.Float64bits(an.NetworkRepairHours), math.Float64bits(an.LocalRepairHours))
}

func TestAnalyzePinned(t *testing.T) {
	var got []string
	for _, s := range placement.AllSchemes {
		a := analyzer(t, s)
		for _, m := range AllMethods {
			got = append(got, analysisRow(s.String(), burst(t, a, m)))
		}
	}
	a := analyzer(t, placement.SchemeCC)
	stripes := a.Layout.LocalStripesPerPool()
	prof := StripeProfile{4: stripes / 2, 2: stripes / 2}
	for _, m := range AllMethods {
		an, err := a.AnalyzeProfile(m, 4, prof)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, analysisRow("mixed", an))
	}
	if strings.Join(got, "\n") != strings.Join(pinnedAnalyses, "\n") {
		var table strings.Builder
		for _, row := range got {
			fmt.Fprintf(&table, "\t%q,\n", row)
		}
		t.Errorf("AnalyzeProfile bits moved; the table now reads:\n%s", table.String())
	}
}
