package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compare reads the end-to-end results two sets of runs wrote with -out
// (the parent commit's and the change's, same benchmark code and
// settings) and gives each workload × metric a verdict by the rules of
// the choosing-metrics guide, section 8.

// row is one workload × metric comparison.
type row struct {
	Parent, Change []float64 // ordered by seed
	Wins, Pairs    int
	Verdict        string
}

// loadResults reads every untraced result file in dir, keyed by workload
// and sorted by seed.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if json.Unmarshal(b, &r) != nil || r.Workload == "" || r.Traced {
			continue // span trees, ledgers and foreign files
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", dir)
	}
	return out, nil
}

// better reports whether a beats b for a metric.
func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// compareRow pairs runs by seed (by position when the seeds differ),
// counts the pairs the change won and gives the verdict:
//   - unresolved: either side's quartile spread exceeds the bound, unless
//     every change run beats every parent run (improved);
//   - improved: the change wins at least 9/10 of the pairs and its median
//     differs from the parent's by more than the parent's quartile range;
//   - regressed: the change's median is worse by more than the bound;
//   - unchanged: otherwise.
func compareRow(d metricDef, parent, change []*result) row {
	var rw row
	bySeed := map[int64]float64{}
	for _, r := range parent {
		v := r.Metrics[d.Name].Value
		rw.Parent = append(rw.Parent, v)
		bySeed[r.Seed] = v
	}
	for i, r := range change {
		v := r.Metrics[d.Name].Value
		rw.Change = append(rw.Change, v)
		p, ok := bySeed[r.Seed]
		if !ok {
			if i >= len(rw.Parent) {
				continue
			}
			p = rw.Parent[i]
		}
		rw.Pairs++
		if better(d, v, p) {
			rw.Wins++
		}
	}
	pm, cm := median(rw.Parent), median(rw.Change)
	pq1, pq3 := quartiles(rw.Parent)
	worse := (cm - pm) / pm
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range rw.Change {
		for _, p := range rw.Parent {
			allBetter = allBetter && better(d, c, p)
		}
	}
	switch {
	case relSpread(rw.Parent) > d.Bound || relSpread(rw.Change) > d.Bound:
		rw.Verdict = "unresolved"
		if allBetter {
			rw.Verdict = "improved"
		}
	case worse < 0 && rw.Pairs > 0 && float64(rw.Wins) >= 0.9*float64(rw.Pairs) && math.Abs(cm-pm) > pq3-pq1:
		rw.Verdict = "improved"
	case worse > d.Bound:
		rw.Verdict = "regressed"
	default:
		rw.Verdict = "unchanged"
	}
	return rw
}

// compareMain implements `ehbench compare PARENT_DIR CHANGE_DIR`. It
// exits 1 when any row regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: ehbench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "ehbench compare:", err)
		return 2
	}
	change, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "ehbench compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %-10s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "change", "wins", "verdict")
	regressed := false
	for _, w := range workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range e2eMetrics {
			rw := compareRow(d, p, c)
			pm, cm := median(rw.Parent), median(rw.Change)
			fmt.Fprintf(stdout, "%-12s %-10s %-34s %-34s %+7.1f%% %3d/%-3d %s\n",
				w.Name, d.Name, summary(rw.Parent), summary(rw.Change), 100*(cm-pm)/pm, rw.Wins, rw.Pairs, rw.Verdict)
			regressed = regressed || rw.Verdict == "regressed"
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}
