package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"amnesiacflood/internal/stats"
)

// This file is `bench compare`: the gate a change passes against its
// parent. Both sides are sets of reports written with --out by the same
// benchmark code and settings; the i-th report of each side forms a pair.

// Verdicts, one per workload and end-to-end metric.
const (
	verdictRegressed  = "REGRESSED"  // the change's median is worse than the parent's by more than the bound
	verdictUnresolved = "unresolved" // the spread is wider than the bound, so "unchanged" cannot be told
	verdictBetter     = "better"     // spread too wide to gate, but every change run beats every parent run
	verdictGain       = "gain"       // the paired-gain rule holds
	verdictWithin     = "within-bound"
)

// minPairs and winShare are the paired-gain rule: at least minPairs
// parent/change pairs run in alternating order, the change winning at
// least winShare of them, with medians further apart than the parent's
// interquartile range.
const (
	minPairs = 10
	winShare = 0.9
)

// sample is one run's value of one metric.
type sample struct {
	value   float64
	started time.Time
}

// quartiles of a sample as Python's statistics.quantiles(xs, n=4) gives
// them (its default "exclusive" method), with the median between.
type quartiles struct {
	N           int
	Q1, Med, Q3 float64
}

func quartilesOf(xs []float64) quartiles {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	q := quartiles{N: len(sorted), Med: stats.Quantile(sorted, 0.5)}
	switch len(sorted) {
	case 0:
		return q
	case 1:
		q.Q1, q.Q3 = sorted[0], sorted[0]
		return q
	}
	m := len(sorted) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(sorted)-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	q.Q1, q.Q3 = cut(1), cut(3)
	return q
}

// spread is the interquartile range as a share of the median.
func (q quartiles) spread() float64 { return (q.Q3 - q.Q1) / math.Abs(q.Med) }

// comparison is the verdict on one workload's metric.
type comparison struct {
	Workload, Metric, Unit string
	Parent, Change         quartiles
	Worse                  float64 // how much worse the change's median reads, as a share of the parent's
	Pairs, Wins            int
	Alternated             bool
	Verdict                string
}

// compareMetric applies the bound, the spread rule and the paired-gain
// rule to one metric of one workload.
func compareMetric(def metricDef, parent, change []sample) comparison {
	values := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.value
		}
		return out
	}
	c := comparison{Metric: def.Name, Unit: def.Unit, Parent: quartilesOf(values(parent)), Change: quartilesOf(values(change))}
	// better(a, b) reports whether value a reads better than value b.
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Worse = (c.Change.Med - c.Parent.Med) / math.Abs(c.Parent.Med)
	if def.Better == "higher" {
		c.Worse = -c.Worse
	}

	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, ch := range change {
			allBetter = allBetter && better(ch.value, p.value)
		}
	}
	c.Pairs = min(len(parent), len(change))
	c.Alternated = c.Pairs > 0
	for i := 0; i < c.Pairs; i++ {
		if better(change[i].value, parent[i].value) {
			c.Wins++
		}
		parentFirst := parent[i].started.Before(change[i].started)
		if i > 0 && parentFirst == parent[i-1].started.Before(change[i-1].started) {
			c.Alternated = false
		}
	}
	gap := math.Abs(c.Change.Med - c.Parent.Med)
	gain := c.Pairs >= minPairs && c.Alternated &&
		float64(c.Wins) >= winShare*float64(c.Pairs) &&
		better(c.Change.Med, c.Parent.Med) && gap > c.Parent.Q3-c.Parent.Q1

	switch {
	case c.Worse > def.Bound:
		c.Verdict = verdictRegressed
	case c.Parent.spread() > def.Bound || c.Change.spread() > def.Bound:
		c.Verdict = verdictUnresolved
		if allBetter {
			c.Verdict = verdictBetter
		}
	case gain:
		c.Verdict = verdictGain
	default:
		c.Verdict = verdictWithin
	}
	return c
}

// compareReports compares every end-to-end metric of every workload both
// sides ran.
func compareReports(cfg *benchConfig, parent, change []*report) []comparison {
	bySide := func(reps []*report) map[string][]*report {
		out := map[string][]*report{}
		for _, r := range reps {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return out
	}
	p, ch := bySide(parent), bySide(change)
	var out []comparison
	for _, wl := range workloadNames() {
		if len(p[wl]) == 0 || len(ch[wl]) == 0 {
			continue
		}
		for _, def := range cfg.EndToEnd {
			pick := func(reps []*report) []sample {
				var ss []sample
				for _, r := range reps {
					if v, ok := r.Metrics[def.Name]; ok {
						ss = append(ss, sample{value: v, started: r.Started})
					}
				}
				return ss
			}
			c := compareMetric(def, pick(p[wl]), pick(ch[wl]))
			c.Workload = wl
			out = append(out, c)
		}
	}
	return out
}

// runCompare is `bench compare [-config BENCHMARK.json] <parent.json...> --
// <change.json...>`. It prints one row per workload and metric and exits
// non-zero when any metric regressed past its bound.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	sep := slices.Index(files, "--")
	if sep <= 0 || sep == len(files)-1 {
		fmt.Fprintln(stderr, "usage: bench compare [-config BENCHMARK.json] <parent.json...> -- <change.json...>")
		return 2
	}
	cfg, err := loadConfig(*config)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	parent, err := loadReports(files[:sep])
	if err == nil {
		var change []*report
		if change, err = loadReports(files[sep+1:]); err == nil {
			return printComparison(stdout, compareReports(cfg, parent, change))
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

// loadReports reads report files written with --out, in order.
func loadReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var reps []*report
		if err := json.Unmarshal(data, &reps); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		out = append(out, reps...)
	}
	return out, nil
}

// printComparison writes the table and returns the exit code.
func printComparison(w io.Writer, rows []comparison) int {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent q1/med/q3 (n)\tchange q1/med/q3 (n)\tworse\twins\tverdict")
	code := 0
	for _, c := range rows {
		pairs := fmt.Sprintf("%d/%d", c.Wins, c.Pairs)
		if !c.Alternated {
			pairs += " (order not alternated)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%+.1f%%\t%s\t%s\n",
			c.Workload, c.Metric, c.Unit, c.Parent.Q1, c.Parent.Med, c.Parent.Q3, c.Parent.N,
			c.Change.Q1, c.Change.Med, c.Change.Q3, c.Change.N, 100*c.Worse, pairs, c.Verdict)
		if c.Verdict == verdictRegressed {
			code = 1
		}
	}
	tw.Flush()
	if len(rows) == 0 {
		fmt.Fprintln(w, "no workload appears on both sides")
		return 1
	}
	return code
}
