package experiments

import (
	"context"
	"fmt"
	"io"

	"mlec/internal/burst"
	"mlec/internal/bwmodel"
	"mlec/internal/ecdur"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/splitting"
	"mlec/internal/throughput"
)

// DetectionPoint is one row of the detection-time ablation.
type DetectionPoint struct {
	DetectionHours float64
	MLECNines      float64 // C/D with R_MIN
	LRCNines       float64 // (14,2,4) LRC-Dp
}

// AblationDetectionResult sweeps failure-detection time.
type AblationDetectionResult struct {
	Points []DetectionPoint
}

// AblationDetection explores the paper's stated future-work question
// (§5.2.2): with much faster failure detection (e.g. 1 minute), LRC-Dp's
// durability could approach or pass MLEC's, because both are bottlenecked
// by the detection floor once repair is optimized (§4.2.3 F#3).
func AblationDetection(opts Options) (*AblationDetectionResult, error) {
	l, err := placement.NewLayout(paperTopo(), paperParams(), placement.SchemeCD)
	if err != nil {
		return nil, err
	}
	s1, err := splitting.MarkovStage1(l, opts.afr())
	if err != nil {
		return nil, err
	}

	lrcParams := placement.LRCParams{K: 14, L: 2, R: 4}
	res := &AblationDetectionResult{}
	for _, det := range []float64{1.0 / 60, 5.0 / 60, 0.5, 2, 8} {
		md, err := splitting.DurabilityDetect(l, repair.RMin, s1, det)
		if err != nil {
			return nil, err
		}
		ld, err := ecdur.LRCDetect(paperTopo(), lrcParams, opts.lambda(), det)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DetectionPoint{
			DetectionHours: det,
			MLECNines:      md.Nines,
			LRCNines:       ld.Nines,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationDetectionResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: durability vs failure-detection time (C/D R_MIN vs LRC-Dp (14,2,4))")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			render.Hours(p.DetectionHours),
			fmt.Sprintf("%.1f", p.MLECNines),
			fmt.Sprintf("%.1f", p.LRCNines),
		})
	}
	return render.Table(w, []string{"detection", "MLEC C/D nines", "LRC-Dp nines"}, rows)
}

// PoolSizePoint is one row of the local-Dp pool-size ablation.
type PoolSizePoint struct {
	PoolDisks       int
	DiskRepairHours float64 // single-disk rebuild (faster in larger pools)
	BurstPDL        float64 // PDL of a 60-failure burst in pn+1 racks
	PoolRepairHours float64 // R_ALL catastrophic-pool rebuild (larger pools hurt)
}

// AblationPoolSizeResult sweeps the declustered pool size — the central
// C/D-vs-C/C tension of §4.1 (fast repair vs burst tolerance vs
// catastrophic-repair bill).
type AblationPoolSizeResult struct {
	Points []PoolSizePoint
}

// AblationPoolSize varies the enclosure (= local-Dp pool) size while
// holding the system at 57,600 disks.
func AblationPoolSize(opts Options) (*AblationPoolSizeResult, error) {
	trials := opts.size().poolSizeTrials
	res := &AblationPoolSizeResult{}
	for _, poolDisks := range []int{40, 60, 120, 240} {
		topo := paperTopo()
		topo.DisksPerEnclosure = poolDisks
		topo.EnclosuresPerRack = 960 / poolDisks
		l, err := placement.NewLayout(topo, paperParams(), placement.SchemeCD)
		if err != nil {
			return nil, err
		}
		bm := bwmodel.New(l)
		r, err := burst.PDLContext(context.Background(), burst.NewMLECEvaluator(l), paperParams().PN+1, 60, trials, opts.Seed, "")
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, PoolSizePoint{
			PoolDisks:       poolDisks,
			DiskRepairHours: bm.SingleDiskRepairHours(),
			BurstPDL:        r.PDL,
			PoolRepairHours: bm.PoolRepairHours(),
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationPoolSizeResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: local-Dp pool size (C/D scheme, 57,600 disks)")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.PoolDisks),
			render.Hours(p.DiskRepairHours),
			fmt.Sprintf("%.3g", p.BurstPDL),
			render.Hours(p.PoolRepairHours),
		})
	}
	return render.Table(w, []string{
		"pool disks", "single-disk repair", "burst PDL (x=pn+1, y=60)", "R_ALL pool repair",
	}, rows)
}

// StripeWidthPoint is one row of the local-stripe-width ablation.
type StripeWidthPoint struct {
	Params placement.Params
	// LostStripeFraction is the share of a 120-disk Dp pool's stripes
	// lost when pl+1 disks fail simultaneously — the quantity behind
	// R_HYB's savings (wider stripes intersect more failures).
	LostStripeFraction float64
	RHYBTrafficBytes   float64
	RMINTrafficBytes   float64
}

// AblationStripeWidthResult sweeps the local code width at fixed pool
// size.
type AblationStripeWidthResult struct {
	Points []StripeWidthPoint
}

// AblationStripeWidth varies the local (kl+pl) code inside the 120-disk
// declustered pool (the paper fixes (17+3)) and reports how the stripe
// width drives the lost-stripe fraction and therefore the advanced
// repair methods' network traffic.
func AblationStripeWidth(_ Options) (*AblationStripeWidthResult, error) {
	res := &AblationStripeWidthResult{}
	for _, local := range []struct{ kl, pl int }{
		{5, 1}, {10, 2}, {17, 3}, {25, 5}, {34, 6},
	} {
		params := paperParams()
		params.KL, params.PL = local.kl, local.pl
		l, err := placement.NewLayout(paperTopo(), params, placement.SchemeCD)
		if err != nil {
			return nil, err
		}
		an := repair.NewAnalyzer(l)
		prof := repair.BurstProfile(l, params.PL+1)
		hyb, err := an.AnalyzeBurst(repair.RHYB)
		if err != nil {
			return nil, err
		}
		min, err := an.AnalyzeBurst(repair.RMin)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, StripeWidthPoint{
			Params:             params,
			LostStripeFraction: prof[params.PL+1] / l.LocalStripesPerPool(),
			RHYBTrafficBytes:   hyb.CrossRackTrafficBytes,
			RMINTrafficBytes:   min.CrossRackTrafficBytes,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationStripeWidthResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: local stripe width vs lost-stripe fraction and repair traffic (C/D, 120-disk pools)")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Params.String(),
			fmt.Sprintf("%.3g", p.LostStripeFraction),
			render.Bytes(p.RHYBTrafficBytes),
			render.Bytes(p.RMINTrafficBytes),
		})
	}
	return render.Table(w, []string{"config", "lost-stripe fraction", "R_HYB traffic", "R_MIN traffic"}, rows)
}

// CorePoint is one row of the encoder-parallelism ablation.
type CorePoint struct {
	Workers     int
	BytesPerSec float64
	Speedup     float64 // vs 1 worker
}

// AblationCoresResult sweeps encoder goroutines.
type AblationCoresResult struct {
	Params placement.Params
	Points []CorePoint
}

// AblationCores measures multi-core encoding throughput for the paper's
// local (17+3) code — quantifying §5.1.2 F#2's remark that throughput can
// be bought with cores at the cost of "imperfect parallelism".
func AblationCores(opts Options) (*AblationCoresResult, error) {
	dur := opts.size().measure * 3
	params := paperParams()
	res := &AblationCoresResult{Params: params}
	base := 0.0
	for _, workers := range []int{1, 2, 4, 8} {
		v, err := throughput.MeasureRSParallel(params.KL, params.PL, 1<<20, workers, dur)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = v
		}
		res.Points = append(res.Points, CorePoint{
			Workers: workers, BytesPerSec: v, Speedup: v / base,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationCoresResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: encoder parallelism for the (%d+%d) local code\n", r.Params.KL, r.Params.PL)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Workers),
			fmt.Sprintf("%.2f GB/s", p.BytesPerSec/1e9),
			fmt.Sprintf("%.2f×", p.Speedup),
		})
	}
	return render.Table(w, []string{"workers", "throughput", "speedup"}, rows)
}
