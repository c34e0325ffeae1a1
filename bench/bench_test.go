package main

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// configPath is BENCHMARK.json as seen from this package's directory.
const configPath = "../BENCHMARK.json"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs), the definitions the acceptance check uses.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5.5, 1.25, 9.75, 3.5, 7.0, 2.0}, 1.8125, 4.5, 7.6875},
	}
	for _, c := range cases {
		q := quartilesOf(c.xs)
		if q.Q1 != c.q1 || q.Med != c.med || q.Q3 != c.q3 || q.N != len(c.xs) {
			t.Errorf("quartilesOf(%v) = %+v, want q1=%v med=%v q3=%v", c.xs, q, c.q1, c.med, c.q3)
		}
	}
}

// runs builds samples from values, the i-th started at minute i plus an
// offset, so two sides can be made to alternate or not.
func runs(offset time.Duration, values ...float64) []sample {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]sample, len(values))
	for i, v := range values {
		out[i] = sample{value: v, started: t0.Add(time.Duration(i)*time.Minute + offset)}
	}
	return out
}

// alternate makes pair i start parent-first when i is even.
func alternate(parent, change []sample) []sample {
	out := slices.Clone(change)
	for i := range out {
		out[i].started = parent[i].started.Add(time.Second)
		if i%2 == 1 {
			out[i].started = parent[i].started.Add(-time.Second)
		}
	}
	return out
}

func TestCompareRules(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	tight := runs(0, 100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2)
	cases := []struct {
		name   string
		def    metricDef
		parent []sample
		change []sample
		want   string
	}{
		{"worse past the bound regresses", lower, tight, alternate(tight, runs(0, 112, 113, 111, 112, 112, 113, 111, 112, 112, 112)), verdictRegressed},
		{"higher-is-better drop regresses", higher, tight, alternate(tight, runs(0, 88, 89, 87, 88, 88, 89, 87, 88, 88, 88)), verdictRegressed},
		{"small slowdown is within bound", lower, tight, alternate(tight, runs(0, 103, 104, 102, 103, 103, 104, 102, 103, 103, 103)), verdictWithin},
		{"ten alternating wins with a gap past the IQR is a gain", lower, tight, alternate(tight, runs(0, 95, 96, 94, 95, 95, 96, 94, 95, 95, 95)), verdictGain},
		{"higher-is-better gain", higher, tight, alternate(tight, runs(0, 105, 106, 104, 105, 105, 106, 104, 105, 105, 105)), verdictGain},
		{"eight wins of ten is no gain", lower, tight, alternate(tight, runs(0, 95, 96, 94, 95, 95, 96, 94, 95, 102, 103)), verdictWithin},
		{"pairs run in one order are no gain", lower, tight, runs(time.Second, 95, 96, 94, 95, 95, 96, 94, 95, 95, 95), verdictWithin},
		{"fewer than ten pairs are no gain", lower, tight[:8], alternate(tight[:8], runs(0, 95, 96, 94, 95, 95, 96, 94, 95)), verdictWithin},
		{"gap inside the parent's IQR is no gain", lower, tight, alternate(tight, runs(0, 99.6, 99.7, 99.5, 99.6, 99.6, 99.7, 99.5, 99.6, 99.6, 99.6)), verdictWithin},
		{"wide spread is unresolved", lower, runs(0, 80, 120, 90, 110, 100, 85, 115, 95, 105, 100), runs(0, 82, 118, 92, 108, 101, 86, 114, 96, 104, 100), verdictUnresolved},
		{"wide spread but every change run better", lower, runs(0, 80, 120, 90, 110, 100, 85, 115, 95, 105, 100), runs(0, 70, 78, 74, 72, 76, 73, 77, 71, 75, 79), verdictBetter},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := compareMetric(c.def, c.parent, c.change)
			if got.Verdict != c.want {
				t.Errorf("verdict %s, want %s (%+v)", got.Verdict, c.want, got)
			}
		})
	}
}

func TestLayerSplit(t *testing.T) {
	tr := newTracer()
	tr.setWindow(true)
	op := tr.newOp()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(op, -1, "shard.suite", at(0), at(10))
	// Two groups run in parallel under the suite; the first holds two rows.
	g1 := tr.add(op, root, "scenario.group", at(1), at(7))
	tr.add(op, root, "scenario.group", at(2), at(9))
	tr.add(op, g1, "engine.row", at(2), at(4))
	tr.add(op, g1, "engine.row", at(4), at(7))
	tr.setWindow(false)
	tr.add(tr.newOp(), -1, "gen.build", at(20), at(30)) // a probe: not window work

	split := tr.layerSplit()
	// shard: 10 - union(1..9) = 2; scenario: (6-5) + 7 = 8; engine: 5.
	want := map[string]float64{"shard": 2, "scenario": 8, "engine": 5}
	for layer, ms := range want {
		got := split[layer]
		if math.Abs(got.SelfMsPerOp-ms) > 1e-9 || math.Abs(got.Share-ms/15) > 1e-9 {
			t.Errorf("%s: %+v, want %v ms and share %v", layer, got, ms, ms/15)
		}
	}
	if _, ok := split["gen"]; ok || len(split) != len(want) {
		t.Errorf("split %v counts layers outside the window", split)
	}
}

func TestConfigMatchesProgram(t *testing.T) {
	cfg, err := loadConfig(configPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	layers := map[string]bool{}
	for _, n := range workloadNames() {
		w, err := newWorkload(n, options{seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range w.layers() {
			layers[l] = true
		}
	}
	for _, d := range cfg.PerLayer {
		layer, _, _ := strings.Cut(d.Name, ".")
		if !layers[layer] {
			t.Errorf("per-layer metric %s names no layer a workload exercises", d.Name)
		}
	}
	setup := slices.IndexFunc(cfg.EndToEnd, func(d metricDef) bool { return d.Name == "setup_s" })
	if setup < 0 || cfg.EndToEnd[setup].Unit != "s" || cfg.EndToEnd[setup].Better != "lower" {
		t.Fatal("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}
	for _, d := range cfg.EndToEnd {
		if d.Bound <= 0 || d.Bound > cfg.EndToEnd[setup].Bound {
			t.Errorf("%s: bound %v must be positive and at most setup_s's", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload traced, with one set-up and a short
// window, and checks that every output verified, nothing failed, and both
// result lines carry every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds graphs of up to 262144 nodes")
	}
	cfg, err := loadConfig(configPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			opt := options{seed: 7, window: 100 * time.Millisecond, setups: 1, traced: true}
			tr := newTracer()
			w, err := newWorkload(name, opt, tr)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), runLimit)
			defer cancel()
			rep, err := runWorkload(ctx, w, opt, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", rep.Correct, rep.Attempted, rep.Failed, rep.Mismatch)
			}
			for _, traced := range []bool{false, true} {
				rep.Traced = traced
				line, err := resultLine(cfg, w, rep)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				defs := cfg.EndToEnd
				if traced {
					defs = cfg.PerLayer
				}
				for _, d := range defs {
					v, ok := out.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: %+v", d.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", d.Name, v.Value)
					}
				}
			}
		})
	}
}

// TestSweepSpecsDistinct guards the sweep's byte-identity check: a repeated
// origin makes a repeated spec, which the shard coordinator merges into one
// row while a single-process run keeps both.
func TestSweepSpecsDistinct(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		b, err := newSweep(options{seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, s := range b.specs {
			ids[s.ID()] = true
		}
		if len(ids) != 640 || len(b.specs) != 640 {
			t.Fatalf("seed %d: %d specs, %d distinct, want 640", seed, len(b.specs), len(ids))
		}
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"--workload", "nope", "--config", configPath}, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestMissingDefinitionExitsNonZero(t *testing.T) {
	var stdout, stderr strings.Builder
	missing := t.TempDir() + "/BENCHMARK.json"
	if code := run([]string{"--workload", "flood-cold", "--config", missing}, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
