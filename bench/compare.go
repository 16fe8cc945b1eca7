package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A verdict says how result set b stands to result set a on one metric of
// one workload, under the bound BENCHMARK.json fixes for the metric.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// resultGroup is what -compare treats as one population of readings: the
// untraced runs of one workload at one seed. Readings from different seeds
// are never pooled, because a seed's inputs fix alloc_mb and allocs_per_work
// (they repeat to well under their bound at a seed and differ by more than
// that between seeds).
type resultGroup struct {
	workload string
	seed     int64
}

// loadResults reads the untraced results of an -out file, by group.
func loadResults(path string) (map[resultGroup][]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[resultGroup][]runResult{}
	for dec := json.NewDecoder(f); dec.More(); {
		var r runResult
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			g := resultGroup{r.Workload, r.Provenance.Seed}
			out[g] = append(out[g], r)
		}
	}
	return out, nil
}

func metricColumn(rs []runResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies a metric's bound to the two sets of readings. worseBy is
// how far b's median is on the wrong side of a's, as a share of a's.
func judge(m metricDef, a, b []float64) (verdict string, worseBy, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / ma
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	spreadA, spreadB = spread(a), spread(b)
	if spreadA > m.Bound || spreadB > m.Bound {
		// Too noisy to call — unless every reading of b is on the good
		// side of every reading of a.
		loA, hiA := minMax(a)
		loB, hiB := minMax(b)
		if (m.Better == "lower" && hiB <= loA) || (m.Better == "higher" && loB >= hiA) {
			return verdictWithin, worseBy, spreadA, spreadB
		}
		return verdictUnresolved, worseBy, spreadA, spreadB
	}
	if worseBy > m.Bound {
		return verdictWorse, worseBy, spreadA, spreadB
	}
	return verdictWithin, worseBy, spreadA, spreadB
}

// compareFiles prints one row per end-to-end metric × workload × seed
// present in both files and returns how many rows read worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (worse int, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	var groups []resultGroup
	for g := range a {
		if len(b[g]) > 0 {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].seed < groups[j].seed
	})
	if len(groups) == 0 {
		return 0, fmt.Errorf("%s and %s share no workload at the same seed", pathA, pathB)
	}
	fmt.Fprintf(w, "a = %s\nb = %s\n\n", pathA, pathB)
	fmt.Fprintf(w, "%-17s %-9s %-16s %5s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "seed", "metric", "n a/b", "median a", "median b", "worse by", "bound", "spread a", "spread b", "verdict")
	unresolved := 0
	for _, g := range groups {
		ra, rb := a[g], b[g]
		for _, m := range spec.EndToEnd {
			if tighter, ok := sameSeedBounds[m.Name]; ok {
				m.Bound = min(m.Bound, tighter)
			}
			va, vb := metricColumn(ra, m.Name), metricColumn(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worseBy, sa, sb := judge(m, va, vb)
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-17s %-9d %-16s %2d/%-2d %12.6g %12.6g %+8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				g.workload, g.seed, m.Name, len(va), len(vb), median(va), median(vb), 100*worseBy, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		// failed_share's bound is 0, absolute: b may not fail a larger share
		// of its operations than a did. Changed outputs are reported beside
		// it; whether a change is wanted is the reader's call.
		fa, fb := worstFailedShare(ra), worstFailedShare(rb)
		verdict := verdictWithin
		if fb > fa {
			verdict = verdictWorse
			worse++
		}
		outputs := "identical"
		if ra[0].Digest != rb[0].Digest {
			outputs = "DIFFER"
		}
		fmt.Fprintf(w, "%-17s %-9d %-16s %2d/%-2d %12.6g %12.6g %9s %7s %8s %8s  %s; deterministic outputs %s\n",
			g.workload, g.seed, "failed_share", len(ra), len(rb), fa, fb, "", "0 abs", "", "", verdict, outputs)
	}
	fmt.Fprintf(w, "\n%d worse, %d unresolved (spread wider than the bound)\n", worse, unresolved)
	return worse, nil
}

func worstFailedShare(rs []runResult) (share float64) {
	for _, r := range rs {
		share = max(share, r.FailedShare)
	}
	return share
}
