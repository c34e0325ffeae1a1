package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"amnesiacflood/internal/stats"
)

// options configure one workload run.
type options struct {
	seed   int64
	window time.Duration
	setups int
	traced bool
}

// workload is one set of inputs the benchmark runs against one system. The
// harness sets the system up several times (keeping the last set-up),
// drives the measured window as a closed loop of clients() callers, then
// asks the workload for its layer metrics and to verify every output it
// received against a reference.
type workload interface {
	name() string
	// clients is the closed loop's caller count: each waits for its reply
	// before sending the next operation.
	clients() int
	// layers names the layers the workload's operations pass through.
	layers() []string
	// setUp starts the system and runs one untimed-by-the-window warm-up
	// pass over it; teardown stops it and waits for everything it started.
	setUp(ctx context.Context) (teardown func() error, err error)
	// begin marks the start of the measured window.
	begin()
	// op runs one operation for the given client and reports its latency.
	op(ctx context.Context, client int) (opResult, error)
	// finish returns the layer metrics of the window.
	finish() map[string]float64
	// probes lists the configurations the traced run times layer by layer,
	// and how many of the workload's runs execute at once.
	probes() (cfgs []probeConfig, parallel int)
	// verify checks every output seen against a reference computed now.
	verify(ctx context.Context) error
}

// opResult is the outcome of one operation.
type opResult struct {
	latency time.Duration
	units   int // work units completed: responses, merged rows or floods
	failed  int // work units that failed or were refused
}

// report is everything one workload run measured. The last output line is
// drawn from Metrics; the whole report goes to --out for compare.
type report struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Started   time.Time             `json:"started"`
	Correct   bool                  `json:"correct"`
	Mismatch  string                `json:"mismatch,omitempty"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Ops       int                   `json:"ops"`
	SetupS    []float64             `json:"setupS"`
	VerifyS   float64               `json:"verifyS"`
	Metrics   map[string]float64    `json:"metrics"`
	Layers    map[string]layerSplit `json:"layers,omitempty"`
	spans     []span
}

// summary is the one-line human account printed to standard error.
func (r *report) summary() string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d correct=%v ops=%d attempted=%d failed=%d verify=%.2fs",
		r.Workload, r.Seed, r.Correct, r.Ops, r.Attempted, r.Failed, r.VerifyS)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, r.Metrics[k])
	}
	if r.Mismatch != "" {
		fmt.Fprintf(&b, "\nmismatch: %s", r.Mismatch)
	}
	return b.String()
}

// runWorkload sets the workload up, measures its window, runs the layer
// probes when traced, and verifies its outputs.
func runWorkload(ctx context.Context, w workload, opt options, tr *tracer) (*report, error) {
	rep := &report{Workload: w.name(), Seed: opt.seed, Seconds: opt.window.Seconds(), Traced: opt.traced, Started: time.Now()}

	var teardown func() error
	for i := 0; i < opt.setups; i++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		td, err := w.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		teardown = td
	}
	defer func() {
		if teardown != nil {
			teardown()
		}
	}()

	e2e, err := measureWindow(ctx, w, opt.window, tr, rep)
	if err != nil {
		return nil, err
	}
	e2e["setup_s"] = stats.Quantile(rep.SetupS, 0.5)
	rep.Metrics = e2e
	for k, v := range w.finish() {
		rep.Metrics[k] = v
	}
	err = teardown()
	teardown = nil
	if err != nil {
		return nil, fmt.Errorf("tearing down: %w", err)
	}

	if opt.traced {
		cfgs, parallel := w.probes()
		layers, timings, err := runProbes(ctx, cfgs, parallel, tr)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range layers {
			rep.Metrics[k] = v
		}
		tr.fillRuns(timings)
		rep.Layers = tr.layerSplit()
		for _, layer := range w.layers() {
			rep.Metrics[layer+".share"] = rep.Layers[layer].Share
		}
		rep.spans = tr.spans
	}

	start := time.Now()
	verr := w.verify(ctx)
	rep.VerifyS = time.Since(start).Seconds()
	rep.Correct = verr == nil
	if verr != nil {
		rep.Mismatch = verr.Error()
	}
	return rep, ctx.Err()
}

// measureWindow drives the closed loop for the window and returns the
// end-to-end metrics measured in it. Every client runs at least one
// operation, however short the window.
func measureWindow(ctx context.Context, w workload, window time.Duration, tr *tracer, rep *report) (map[string]float64, error) {
	type clientStats struct {
		latencies    []float64 // ms, successful operations only
		units, fails int
		err          error
	}
	per := make([]clientStats, w.clients())
	sampler := startHeapSampler()
	w.begin()
	tr.setWindow(true)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			for len(st.latencies)+st.fails == 0 || time.Now().Before(deadline) {
				if ctx.Err() != nil {
					st.err = ctx.Err()
					return
				}
				r, err := w.op(ctx, c)
				if err != nil {
					st.err = err
					return
				}
				st.units += r.units
				st.fails += r.failed
				if r.failed == 0 {
					st.latencies = append(st.latencies, float64(r.latency)/float64(time.Millisecond))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	tr.setWindow(false)
	peak := sampler.stop()

	var lat []float64
	var units int
	for _, st := range per {
		if st.err != nil {
			return nil, fmt.Errorf("operation: %w", st.err)
		}
		lat = append(lat, st.latencies...)
		units += st.units
		rep.Failed += st.fails
	}
	rep.Ops = len(lat)
	rep.Attempted = units + rep.Failed
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded in the window")
	}
	// Throughput is over the window's wall time, the last operation's
	// overrun included, so time lost between operations counts too.
	return map[string]float64{
		"throughput_per_s": float64(units) / elapsed,
		"latency_p50_ms":   stats.Quantile(lat, 0.5),
		"latency_p90_ms":   stats.Quantile(lat, 0.9),
		"latency_p99_ms":   stats.Quantile(lat, 0.99),
		"peak_heap_mb":     float64(peak) / (1 << 20),
		"error_rate":       float64(rep.Failed) / float64(rep.Attempted),
	}, nil
}

// exercises reports whether the workload's operations pass through the
// layer a metric is named after ("service.overhead_ms" → "service").
func exercises(w workload, metric string) bool {
	layer, _, _ := strings.Cut(metric, ".")
	return slices.Contains(w.layers(), layer)
}

// heapSampler records the peak live heap while the window runs: the heap
// the garbage collector last found reachable. Unlike the heap's current
// size it does not depend on how far the collector lets garbage pile up,
// so it moves with what the system retains. runtime/metrics reads it
// without stopping the world.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-h.stopc:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
