package obs

import "testing"

func TestSortedSnapshot(t *testing.T) {
	m := map[string]int{"zeta": 1, "alpha": 2, "mid": 3}
	got := SortedSnapshot(m)
	want := []KV[int]{{"alpha", 2}, {"mid", 3}, {"zeta", 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := SortedSnapshot(map[string]string(nil)); len(out) != 0 {
		t.Fatalf("nil map snapshot = %v, want empty", out)
	}
}

// TestSplitName pins that a metric name is not split into a base and a
// label block: bare names are accepted whole, and every spelling with a
// label block, well-formed or not, is rejected rather than parsed.
func TestSplitName(t *testing.T) {
	for _, n := range []string{"a_total", "_x", "ns:sub_total", "A9"} {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	for _, n := range []string{
		"",
		"9lead",
		"sp ace",
		`repair_bytes_total{method="R_ALL"}`,
		`x{y="1"`,
		`x{y=1}`,
	} {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
}

// TestValidNameHostile pins which spellings the registry accepts: bare
// Prometheus names only. A label block, even a well-formed one, and any
// structural byte of the text format are rejected.
func TestValidNameHostile(t *testing.T) {
	for _, n := range []string{
		`m_total{v="plain"}`,
		`m_total{v="a\"b"}`,
		"new\nline",
		`qu"ote`,
		`back\slash`,
		"comma,inside",
		"clos}ing",
		"da-sh",
	} {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
}
