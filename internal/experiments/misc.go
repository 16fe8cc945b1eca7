package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mlec/internal/cluster"
	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/splitting"
	"mlec/internal/traffic"
)

// Tab1Result demonstrates the Table 1 failure-mode taxonomy on a live
// cluster: a scripted failure sequence and the classification after each
// step.
type Tab1Result struct {
	Steps []Tab1Step
}

// Tab1Step is one failure-injection step.
type Tab1Step struct {
	Description string
	Report      cluster.FailureReport
}

// Tab1 injects an escalating failure sequence into a small C/C cluster
// and classifies the damage after each step.
func Tab1(opts Options) (*Tab1Result, error) {
	topo := paperTopo()
	topo.Racks = 6
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 12
	cfg := cluster.Config{
		Topo:   topo,
		Params: placement.Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme: placement.SchemeCC,
		Seed:   opts.Seed,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	data := make([]byte, 4*c.NetStripeDataBytes())
	rand.New(rand.NewSource(opts.Seed)).Read(data)
	if err := c.Write("demo", data); err != nil {
		return nil, err
	}
	res := &Tab1Result{}
	step := func(desc string) {
		res.Steps = append(res.Steps, Tab1Step{Description: desc, Report: c.Report()})
	}
	step("healthy")
	c.FailDisk(0)
	step("1 failed disk: affected, locally-recoverable local stripes")
	c.FailDisk(1)
	c.FailDisk(2)
	step("pl+1 failures in one pool: lost local stripes, catastrophic pool")
	dpr := topo.DisksPerRack()
	for _, d := range []int{dpr, dpr + 1, dpr + 2} {
		c.FailDisk(d)
	}
	step("pn+1 aligned catastrophic pools: lost network stripes (data loss)")
	return res, nil
}

// Render prints the classification table.
func (r *Tab1Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: MLEC failure modes, demonstrated on a live cluster")
	rows := make([][]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		rep := s.Report
		rows = append(rows, []string{
			s.Description,
			fmt.Sprintf("%d", rep.FailedChunks),
			fmt.Sprintf("%d", rep.AffectedLocalStripes),
			fmt.Sprintf("%d", rep.LocallyRecoverable),
			fmt.Sprintf("%d", rep.LostLocalStripes),
			fmt.Sprintf("%d", rep.CatastrophicLocalPools),
			fmt.Sprintf("%d", rep.LostNetworkStripes),
		})
	}
	return render.Table(w, []string{
		"step", "failed chunks", "affected local", "locally recoverable",
		"lost local", "catastrophic pools", "lost network (data loss)",
	}, rows)
}

// Fig14Result demonstrates the (4,2,2) LRC layout of Figure 14.
type Fig14Result struct {
	Params placement.LRCParams
	// LocalRepairReads counts chunks read to repair one data chunk via
	// its local group (k/l = 2, vs k = 4 for a global repair).
	LocalRepairReads  int
	GlobalRepairReads int
	RoundTripOK       bool
}

// Fig14 encodes a (4,2,2) LRC stripe with the real codec, repairs a
// single failure through the local group, and reports the read costs.
func Fig14(opts Options) (*Fig14Result, error) {
	params := placement.LRCParams{K: 4, L: 2, R: 2}
	codec, err := lrc.New(params.K, params.L, params.R)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	shards := make([][]byte, codec.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, 1024)
		if i < params.K {
			rng.Read(shards[i])
		}
	}
	if err := codec.Encode(shards); err != nil {
		return nil, err
	}
	ref := append([]byte(nil), shards[0]...)
	shards[0] = nil
	ok := codec.LocalRepairable(shards, 0)
	if !ok {
		return nil, fmt.Errorf("fig14: single failure not locally repairable")
	}
	if err := codec.Reconstruct(shards); err != nil {
		return nil, err
	}
	return &Fig14Result{
		Params: params,
		// Local repair reads the group's surviving data chunk + the
		// group parity; a global repair would read k chunks.
		LocalRepairReads:  params.K/params.L - 1 + 1,
		GlobalRepairReads: params.K,
		RoundTripOK:       bytesEqual(shards[0], ref),
	}, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render describes the layout and repair costs.
func (r *Fig14Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 14: a %v LRC (k data, l local parities, r global parities)\n", r.Params)
	fmt.Fprintf(w, "  stripe: a1 a2 | a3 a4 | a12 a34 | ap aq — every chunk in a separate rack\n")
	fmt.Fprintf(w, "  single-failure repair reads %d chunks via the local group (vs %d via globals); round trip ok: %v\n",
		r.LocalRepairReads, r.GlobalRepairReads, r.RoundTripOK)
	return nil
}

// Sec5TrafficResult carries the §5.1.4/§5.2.4 repair-traffic comparison.
type Sec5TrafficResult struct {
	Comparison traffic.Comparison
}

// Sec5Traffic compares long-run cross-rack repair traffic: network SLEC
// vs LRC-Dp vs MLEC with R_MIN.
func Sec5Traffic(opts Options) (*Sec5TrafficResult, error) {
	topo := paperTopo()
	l, err := placement.NewLayout(topo, paperParams(), placement.SchemeCD)
	if err != nil {
		return nil, err
	}
	s1, err := splitting.MarkovStage1(l, opts.afr())
	if err != nil {
		return nil, err
	}
	cmp, err := traffic.Compare(topo,
		placement.SLECParams{K: 7, P: 3},
		placement.LRCParams{K: 14, L: 2, R: 4},
		l, repair.RMin, opts.lambda(), s1.CatRatePerPoolHour)
	if err != nil {
		return nil, err
	}
	return &Sec5TrafficResult{Comparison: cmp}, nil
}

// Render prints the comparison.
func (r *Sec5TrafficResult) Render(w io.Writer) error {
	c := r.Comparison
	fmt.Fprintln(w, "§5.1.4 / §5.2.4: long-run cross-rack repair network traffic")
	rows := [][]string{
		{"network (7+3) SLEC", render.Bytes(c.NetworkSLECDaily) + " per day"},
		{"LRC-Dp (14,2,4)", render.Bytes(c.LRCDaily) + " per day"},
		{"MLEC C/D R_MIN", render.Bytes(c.MLECYearly) + " per year"},
		{"MLEC years per TB", fmt.Sprintf("%.3g", c.MLECYearsPerTB)},
	}
	return render.Table(w, []string{"system", "repair traffic"}, rows)
}
