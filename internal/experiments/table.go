// Package experiments regenerates every evaluation artifact of the paper —
// Figures 1, 2, 3 and 5, the proof machinery of Figure 4, and the three
// termination theorems — as reproducible tables. All is the authoritative
// index; testdata/runall.txt pins every table of the default run.
//
// Every experiment is a pure function of its Config (sizes and RNG seed),
// so reruns are bit-identical.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"amnesiacflood/internal/sim"
)

// Table is a printable experiment result: a title, a header row, data rows,
// and free-form notes comparing the measurement with the paper's claim.
// The JSON field tags define the machine-readable form emitted by
// cmd/afbench -json.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a data row; values are stringified with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = pad(cell, widths[i])
			} else {
				parts[i] = cell
			}
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := printRow(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := printRow(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// Config parameterises the experiment suite.
type Config struct {
	// Seed drives every random generator in the suite.
	Seed int64
	// Scale multiplies the default instance sizes; 1 is the standard
	// suite, smaller values (the benchmarks use Scale handled per
	// experiment) shrink runtimes.
	Scale int
	// Engine selects the synchronous engine executing the single-run
	// experiments; the zero value means sim.Sequential. Every engine
	// produces identical tables (the engines are trace-equivalent), so
	// this only changes how fast the suite runs.
	Engine sim.EngineKind
}

// EngineKind resolves the configured engine, defaulting to sim.Sequential.
func (c Config) EngineKind() sim.EngineKind {
	if c.Engine == 0 {
		return sim.Sequential
	}
	return c.Engine
}

// DefaultConfig is the configuration used by cmd/afbench and the pinned
// testdata/runall.txt tables.
func DefaultConfig() Config {
	return Config{Seed: 20190729, Scale: 1} // PODC 2019 started July 29
}

// scaled returns n*Scale, minimum 1.
func (c Config) scaled(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := n * s
	if v < 1 {
		v = 1
	}
	return v
}

// Experiment couples an experiment ID with its runner, for the registry
// used by cmd/afbench.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) ([]*Table, error)
}

// All returns the full suite in experiment-ID order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "Figure 1: line graph", Run: Fig1Line},
		{ID: "E2", Name: "Figure 2: triangle", Run: Fig2Triangle},
		{ID: "E3", Name: "Figure 3: even cycle", Run: Fig3EvenCycle},
		{ID: "E4", Name: "Lemma 2.1 / Corollary 2.2: bipartite termination", Run: BipartiteTermination},
		{ID: "E5", Name: "Theorems 3.1 + 3.3: general termination", Run: NonBipartiteTermination},
		{ID: "E6", Name: "Figure 4 / Lemma 3.2: round-set analysis", Run: RoundSetAnalysis},
		{ID: "E7", Name: "Figure 5: asynchronous adversary", Run: AsyncNonTermination},
		{ID: "E8", Name: "Baseline: amnesiac vs classic flooding", Run: ClassicComparison},
		{ID: "E9", Name: "Application: bipartiteness detection", Run: BipartitenessDetection},
		{ID: "E10", Name: "Engine equivalence: sequential vs channels vs fast vs bitset", Run: EngineEquivalence},
		{ID: "E11", Name: "Full-paper machinery: double-cover exact prediction", Run: DoubleCoverPrediction},
		{ID: "E12", Name: "Extension: fault injection (loss, crashes)", Run: FaultInjection},
		{ID: "E13", Name: "Extension: multi-source flooding", Run: MultiSource},
		{ID: "E14", Name: "Extension: dynamic networks", Run: DynamicNetworks},
		{ID: "E15", Name: "Extension: loss-probability curve", Run: LossCurve},
		{ID: "E16", Name: "Extension: broadcast congestion", Run: BroadcastLoad},
		{ID: "E17", Name: "Baseline: termination detection price", Run: TerminationDetection},
		{ID: "E18", Name: "Wavefront profile: messages per round", Run: WavefrontProfile},
	}
}

// RunAll executes the whole suite against w.
func RunAll(w io.Writer, cfg Config) error {
	for _, exp := range All() {
		tables, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s (%s): %w", exp.ID, exp.Name, err)
		}
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				return err
			}
		}
	}
	return nil
}
