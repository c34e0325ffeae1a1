package scenario

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/stats"
)

// Sink consumes results as the Runner completes them. The Runner serialises
// Write calls, so implementations need no internal locking for its sake;
// Aggregate locks anyway because callers read it while or after a suite
// runs.
type Sink interface {
	Write(Result) error
}

// MultiSink fans every result out to several sinks in order. Every sink is
// attempted even when an earlier one fails — one broken file sink must not
// blind the aggregate riding beside it — and the failures are joined into
// the returned error (matchable individually with errors.Is/errors.As).
type MultiSink []Sink

// Write implements Sink.
func (m MultiSink) Write(res Result) error {
	var errs []error
	for _, s := range m {
		if s == nil {
			continue
		}
		if err := s.Write(res); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// NewChaosSink wraps sink with fault injection at the chaos sink site, keyed
// by each row's Spec ID: injected errors surface as Write failures (and
// injected panics as real panics) — the harness for exercising suite
// sink-failure paths deterministically (see internal/chaos).
func NewChaosSink(sink Sink, inj *chaos.Injector) Sink {
	return chaosSink{sink: sink, inj: inj}
}

type chaosSink struct {
	sink Sink
	inj  *chaos.Injector
}

// Write implements Sink.
func (c chaosSink) Write(res Result) error {
	if err := c.inj.Inject(context.Background(), chaos.SiteSink, res.Spec.ID(), 1); err != nil {
		return err
	}
	return c.sink.Write(res)
}

// jsonlSink streams one JSON object per line.
type jsonlSink struct {
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing each result as one JSON line — the
// append-friendly format for long sweeps and the `make suite` smoke test.
func NewJSONLSink(w io.Writer) Sink {
	return jsonlSink{enc: json.NewEncoder(w)}
}

// Write implements Sink.
func (s jsonlSink) Write(res Result) error {
	return s.enc.Encode(res)
}

// CSVSink streams results as CSV with a fixed header. Call Flush when the
// suite is done.
type CSVSink struct {
	w           *csv.Writer
	metricCols  []string
	wroteHeader bool
}

// NewCSVSink returns a CSV sink over w. metricCols, when given, appends one
// flattened column per analysis metric name ("<family>.<metric>"; plan them
// with analysis.MetricColumns over the suite's analysis specs) — a run that
// did not emit a planned metric leaves the cell empty.
func NewCSVSink(w io.Writer, metricCols ...string) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w), metricCols: metricCols}
}

// csvHeader is the column layout of CSVSink.
var csvHeader = []string{
	"graph", "protocol", "engine", "model", "origins", "seed", "rep",
	"n", "m", "rounds", "messages", "lost", "terminated", "stopped",
	"outcome", "cycle_start", "cycle_length", "wall_us", "err",
}

// writeHeader emits the header row once.
func (s *CSVSink) writeHeader() error {
	if s.wroteHeader {
		return nil
	}
	if err := s.w.Write(append(append([]string(nil), csvHeader...), s.metricCols...)); err != nil {
		return err
	}
	s.wroteHeader = true
	return nil
}

// Write implements Sink.
func (s *CSVSink) Write(res Result) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	origins := make([]string, len(res.Spec.Origins))
	for i, o := range res.Spec.Origins {
		origins[i] = strconv.Itoa(int(o))
	}
	row := []string{
		res.Spec.Graph, res.Spec.Protocol, res.Spec.Engine, modelOf(res.Spec), strings.Join(origins, " "),
		strconv.FormatInt(res.Spec.Seed, 10), strconv.Itoa(res.Spec.Rep),
		strconv.Itoa(res.N), strconv.Itoa(res.M),
		strconv.Itoa(res.Rounds), strconv.Itoa(res.TotalMessages), strconv.Itoa(res.Lost),
		strconv.FormatBool(res.Terminated), strconv.FormatBool(res.Stopped),
		res.Outcome, strconv.Itoa(res.CycleStart), strconv.Itoa(res.CycleLength),
		strconv.FormatInt(res.WallMicros, 10), res.Err,
	}
	for _, col := range s.metricCols {
		v, ok := res.Metrics[col]
		if !ok {
			row = append(row, "")
			continue
		}
		row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return s.w.Write(row)
}

// modelOf renders a spec's model axis with the empty spelling normalised.
func modelOf(s Spec) string {
	if s.Model == "" {
		return "sync"
	}
	return s.Model
}

// Flush drains the CSV writer's buffer and reports any deferred write
// error. An empty or all-skipped suite still gets its header: Flush emits it
// when no row did, so the output is a valid (if rowless) CSV file rather
// than empty bytes.
func (s *CSVSink) Flush() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	s.w.Flush()
	return s.w.Error()
}

// Aggregate is the in-memory sink: it retains every result and folds
// per-(graph, protocol, engine) statistics as they stream in.
type Aggregate struct {
	mu      sync.Mutex
	results []Result
	cells   map[string]*Cell
}

// Cell is one aggregation bucket of an Aggregate.
type Cell struct {
	// Graph, Protocol, Engine, and Model identify the bucket.
	Graph    string
	Protocol string
	Engine   string
	Model    string
	// Runs and Errors count completed and failed runs.
	Runs   int
	Errors int
	// Certified counts runs ending in a non-termination certificate.
	Certified int
	// MinRounds/MaxRounds/SumRounds summarise round counts over the
	// non-failed runs, and SumMessages their message totals.
	MinRounds   int
	MaxRounds   int
	SumRounds   int
	SumMessages int
	// SumWallMicros accumulates wall time over non-failed runs.
	SumWallMicros int64
	// metricSamples retains every analysis metric value of the cell's
	// non-failed runs, keyed by "<family>.<metric>" — the input to
	// MetricSummary.
	metricSamples map[string][]float64
}

// MeanRounds returns the mean round count over successful runs.
func (c *Cell) MeanRounds() float64 {
	if n := c.Runs - c.Errors; n > 0 {
		return float64(c.SumRounds) / float64(n)
	}
	return 0
}

// MetricNames lists the analysis metric columns observed in this cell,
// sorted.
func (c *Cell) MetricNames() []string {
	names := make([]string, 0, len(c.metricSamples))
	for name := range c.metricSamples {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// MetricSummary folds the cell's sample of the named analysis metric into
// a stats.Summary (n, mean, stddev, min, median, max) — the scenario-layer
// aggregation the quantiles analysis family feeds. ok is false when no run
// of the cell emitted the metric. The sample is sorted before summing:
// samples accumulate in worker-completion order, and float addition is not
// associative, so sorting keeps the summary bit-identical across worker
// counts like every other aggregate quantity.
func (c *Cell) MetricSummary(name string) (stats.Summary, bool) {
	sample, ok := c.metricSamples[name]
	if !ok {
		return stats.Summary{}, false
	}
	sorted := append([]float64(nil), sample...)
	slices.Sort(sorted)
	return stats.Summarize(sorted), true
}

// MetricQuantile returns the q-quantile of the cell's sample of the named
// metric (linear interpolation between order statistics).
func (c *Cell) MetricQuantile(name string, q float64) (float64, bool) {
	sample, ok := c.metricSamples[name]
	if !ok {
		return 0, false
	}
	return stats.Quantile(sample, q), true
}

// NewAggregate returns an empty in-memory sink.
func NewAggregate() *Aggregate {
	return &Aggregate{cells: map[string]*Cell{}}
}

// Write implements Sink.
func (a *Aggregate) Write(res Result) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.results = append(a.results, res)
	key := res.Spec.Graph + "|" + res.Spec.Protocol + "|" + res.Spec.Engine + "|" + modelOf(res.Spec)
	cell, ok := a.cells[key]
	if !ok {
		cell = &Cell{Graph: res.Spec.Graph, Protocol: res.Spec.Protocol, Engine: res.Spec.Engine, Model: modelOf(res.Spec)}
		a.cells[key] = cell
	}
	cell.Runs++
	if res.Err != "" {
		cell.Errors++
		return nil
	}
	if res.CycleLength > 0 {
		cell.Certified++
	}
	if cell.Runs-cell.Errors == 1 || res.Rounds < cell.MinRounds {
		cell.MinRounds = res.Rounds
	}
	if res.Rounds > cell.MaxRounds {
		cell.MaxRounds = res.Rounds
	}
	cell.SumRounds += res.Rounds
	cell.SumMessages += res.TotalMessages
	cell.SumWallMicros += res.WallMicros
	if len(res.Metrics) > 0 {
		if cell.metricSamples == nil {
			cell.metricSamples = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			cell.metricSamples[name] = append(cell.metricSamples[name], v)
		}
	}
	return nil
}

// Results returns every retained result sorted by Spec ID (the
// order-normalised form).
func (a *Aggregate) Results() []Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]Result(nil), a.results...)
	sortByID(out)
	return out
}

// Cells returns the aggregation buckets sorted by (graph, protocol,
// engine).
func (a *Aggregate) Cells() []*Cell {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Cell, 0, len(a.cells))
	for _, c := range a.cells {
		cp := *c
		if len(c.metricSamples) > 0 {
			cp.metricSamples = make(map[string][]float64, len(c.metricSamples))
			for name, sample := range c.metricSamples {
				cp.metricSamples[name] = append([]float64(nil), sample...)
			}
		}
		out = append(out, &cp)
	}
	slices.SortFunc(out, func(a, b *Cell) int {
		if c := strings.Compare(a.Graph, b.Graph); c != 0 {
			return c
		}
		if c := strings.Compare(a.Protocol, b.Protocol); c != 0 {
			return c
		}
		if c := strings.Compare(a.Engine, b.Engine); c != 0 {
			return c
		}
		return strings.Compare(a.Model, b.Model)
	})
	return out
}

// Fprint renders the aggregate as an aligned text table, one row per cell,
// followed by one summary line per analysis metric column the cell
// collected (mean, stddev, min, median, max over the cell's runs).
func (a *Aggregate) Fprint(w io.Writer) error {
	cells := a.Cells()
	if _, err := fmt.Fprintf(w, "%-40s %-12s %-12s %-28s %5s %4s %5s %6s %6s %8s %10s %10s\n",
		"graph", "protocol", "engine", "model", "runs", "err", "cert", "minR", "maxR", "meanR", "msgs", "wall_us"); err != nil {
		return err
	}
	for _, c := range cells {
		if _, err := fmt.Fprintf(w, "%-40s %-12s %-12s %-28s %5d %4d %5d %6d %6d %8.1f %10d %10d\n",
			c.Graph, c.Protocol, c.Engine, c.Model, c.Runs, c.Errors, c.Certified,
			c.MinRounds, c.MaxRounds, c.MeanRounds(), c.SumMessages, c.SumWallMicros); err != nil {
			return err
		}
		for _, name := range c.MetricNames() {
			summary, _ := c.MetricSummary(name)
			if _, err := fmt.Fprintf(w, "    %-36s %s\n", name, summary); err != nil {
				return err
			}
		}
	}
	return nil
}
