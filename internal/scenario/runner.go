package scenario

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"amnesiacflood/internal/chaos"
	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
)

// Result is the outcome of one spec's run. Every field except WallMicros
// (and, under retries, Attempts) is a deterministic function of the Spec, so
// suites executed under any worker count agree result-for-result once
// order-normalised by Spec ID.
type Result struct {
	// Spec identifies the run.
	Spec Spec `json:"spec"`
	// N and M record the built graph's size, attributing results to the
	// exact instance even for seeded random families.
	N int `json:"n"`
	M int `json:"m"`
	// Rounds, TotalMessages, Lost, Terminated, and Stopped mirror
	// engine.Result.
	Rounds        int  `json:"rounds"`
	TotalMessages int  `json:"totalMessages"`
	Lost          int  `json:"lost,omitempty"`
	Terminated    bool `json:"terminated"`
	Stopped       bool `json:"stopped,omitempty"`
	// Outcome is the run's verdict ("terminated",
	// "non-termination-certified", "round-limit", or the scenario-level
	// "timeout" when the watchdog expired every attempt);
	// CycleStart/CycleLength describe the certificate when the outcome is a
	// certified cycle.
	Outcome     string `json:"outcome,omitempty"`
	CycleStart  int    `json:"cycleStart,omitempty"`
	CycleLength int    `json:"cycleLength,omitempty"`
	// Metrics holds the merged streaming-analysis metrics of the run
	// ("<family>.<metric>" keys), present when the spec attaches analyses.
	// Metric values are deterministic functions of the Spec, like every
	// other outcome field.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Attempts counts the run attempts this row consumed: 1 without faults,
	// more when transient failures (timeouts, injected faults, panics, run
	// errors) were retried. Rows that failed before any run attempt (bad
	// origin, graph-build failure) report 0. Like WallMicros it is execution
	// bookkeeping, not part of the deterministic outcome; order-normalised
	// comparisons zero it.
	Attempts int `json:"attempts,omitempty"`
	// WallMicros is the wall-clock run time in microseconds. It is
	// nondeterministic; comparisons must ignore it.
	WallMicros int64 `json:"wallMicros"`
	// Err carries the run error, if any; errored runs leave the outcome
	// fields (Rounds, TotalMessages, ...) zero, and N/M too when the
	// failure precedes graph construction. A failed run does not abort
	// the suite — a recovered panic, a timeout, or an exhausted retry
	// budget all degrade to an error row.
	Err string `json:"err,omitempty"`
}

// Runner executes a suite of specs over a bounded worker pool. The zero
// value is usable: DefaultWorkers workers, no sink, no watchdog, no retries.
type Runner struct {
	// Workers bounds the pool; <= 0 means DefaultWorkers.
	Workers int
	// Sink, when non-nil, receives every Result as it completes.
	// Completion order is nondeterministic under more than one worker;
	// Write calls are serialised by the runner, so sinks need no locking
	// of their own.
	Sink Sink
	// RunTimeout, when positive, bounds every run attempt with a derived
	// deadline (Spec.Timeout overrides it per spec). Engines observe the
	// deadline at round granularity, so a runaway round loop — a
	// non-terminating model without MaxRounds, say — becomes a Result row
	// with Outcome "timeout" instead of a hung worker. A protocol that
	// blocks inside a single round callback still blocks its worker until
	// the callback returns.
	RunTimeout time.Duration
	// Retries is how many times a transiently failed run attempt is retried
	// (total attempts = Retries + 1). Transient failures are timeouts,
	// chaos-injected faults, recovered panics, and run-stage errors;
	// deterministic spec failures (unparseable graph, bad origin, session
	// construction) are never retried.
	Retries int
	// Backoff is the base delay of the capped exponential backoff between
	// attempts (attempt n waits base << (n-1), capped at 64x base, scaled
	// by a jitter in [0.5, 1.5) seeded from the spec). <= 0 means 10ms.
	Backoff time.Duration
	// Chaos, when non-nil, injects deterministic faults at the run and
	// graph-build points of every attempt — the fault-injection harness the
	// differential chaos gate drives (see internal/chaos).
	Chaos *chaos.Injector
	// Metrics, when non-nil, records attempts, retries, backoff sleeps,
	// timeouts, recovered panics, chaos faults, emitted rows, and phase
	// timings into an obs registry (see NewTelemetry). Recording is
	// read-only with respect to the rows themselves: metrics-on output is
	// byte-identical to metrics-off output.
	Metrics *Telemetry
}

// DefaultWorkers is the pool bound used when Runner.Workers is zero:
// GOMAXPROCS capped at 8.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// defaultBackoff is the base retry delay when Runner.Backoff is unset.
const defaultBackoff = 10 * time.Millisecond

// runConfig is the per-suite slice of Runner the workers need.
type runConfig struct {
	timeout time.Duration
	retries int
	backoff time.Duration
	chaos   *chaos.Injector
	tel     *Telemetry // nil when the suite runs without metrics
}

// group is the unit of work handed to a pool worker: all specs sharing a
// graph, protocol, engine, model, analyses, seed, and round limit. One
// group = one built graph and one sim.Session, which runs every spec of the
// group through Session.RunFrom, so the engines amortise their arenas
// across the group's runs.
type group struct {
	key   string
	specs []Spec
}

// groupKey buckets specs that can share a Session (everything but origins,
// rep, and the per-spec timeout override — deadlines are per run, so they
// do not split sessions).
func groupKey(s Spec) string {
	return Spec{Graph: s.Graph, Protocol: s.Protocol, Engine: s.Engine,
		Model: s.Model, Analyses: s.Analyses, Seed: s.Seed, MaxRounds: s.MaxRounds}.ID()
}

// GroupKey exposes the runner's session-sharing partition: specs with equal
// keys share one built graph and one sim.Session (and hence fast-engine
// arenas) when executed together. It is the natural unit of distributed
// work — internal/shard leases whole groups to shard workers so each lease
// keeps the runner's arena-reuse locality.
func GroupKey(s Spec) string { return groupKey(s) }

// Distinct returns specs in order without any spec whose ID repeats an
// earlier one, so one row serves every copy of a spec. Run, Resume and
// shard.NewCoordinator all run a suite through it.
func Distinct(specs []Spec) []Spec {
	seen := make(map[string]bool, len(specs))
	out := make([]Spec, 0, len(specs))
	for _, s := range specs {
		if id := s.ID(); !seen[id] {
			seen[id] = true
			out = append(out, s)
		}
	}
	return out
}

// Run executes every distinct spec and returns the results sorted by Spec ID
// (the order-normalised form). A spec whose ID repeats an earlier one is
// dropped (see Distinct). Individual run failures — including recovered
// panics, expired watchdogs, and exhausted retry budgets — are recorded in
// Result.Err and do not abort the suite; Run itself fails only on context
// cancellation or a sink write error — either cancels the remaining work —
// returning the results completed so far (still sorted). When both happen,
// the returned error joins them.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	cfg := runConfig{timeout: r.RunTimeout, retries: r.Retries, backoff: r.Backoff, chaos: r.Chaos, tel: r.Metrics}
	if cfg.retries < 0 {
		cfg.retries = 0
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Bucket distinct specs into session-sharing groups, preserving
	// first-seen order so sequential execution (workers=1) follows the
	// suite order.
	var groups []*group
	index := map[string]*group{}
	for _, s := range Distinct(specs) {
		key := groupKey(s)
		grp, ok := index[key]
		if !ok {
			grp = &group{key: key}
			index[key] = grp
			groups = append(groups, grp)
		}
		grp.specs = append(grp.specs, s)
	}
	if workers > len(groups) && len(groups) > 0 {
		workers = len(groups)
	}

	jobs := make(chan *group)
	resultCh := make(chan Result)
	cache := newGraphCache()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for grp := range jobs {
				runGroup(runCtx, grp, cache, cfg, resultCh)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, grp := range groups {
			select {
			case jobs <- grp:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resultCh)
	}()

	results := make([]Result, 0, len(specs))
	var sinkErr error
	for res := range resultCh {
		results = append(results, res)
		cfg.tel.row(&res)
		if r.Sink != nil && sinkErr == nil {
			var sinkStart time.Time
			if cfg.tel != nil {
				sinkStart = time.Now()
			}
			err := r.Sink.Write(res)
			if cfg.tel != nil {
				cfg.tel.sinkWrite(time.Since(sinkStart))
			}
			if err != nil {
				sinkErr = fmt.Errorf("scenario: sink: %w", err)
				cancel() // stop the remaining work; keep draining resultCh
			}
		}
	}
	sortByID(results)
	// Surface both failure modes: a cancelled suite whose sink also broke
	// must not mask the sink error behind ctx.Err().
	return results, errors.Join(ctx.Err(), sinkErr)
}

// SortResults order-normalises results in place by Spec ID — the canonical
// order every suite comparison (and the shard coordinator's merge) uses.
func SortResults(results []Result) { sortByID(results) }

// sortByID order-normalises results by Spec ID, computing each key once
// up front instead of inside the comparator (Spec.ID allocates): results
// are sorted indirectly through a keyed index and permuted into place.
func sortByID(results []Result) {
	type keyed struct {
		key   string
		index int
	}
	keys := make([]keyed, len(results))
	for i := range results {
		keys[i] = keyed{key: results[i].Spec.ID(), index: i}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	sorted := make([]Result, len(results))
	for i, k := range keys {
		sorted[i] = results[k.index]
	}
	copy(results, sorted)
}

// graphCache builds each distinct (spec, seed) instance exactly once and
// shares it across groups — a graph swept over P protocols and E engines
// forms P*E groups but is constructed a single time. Graphs are immutable,
// so cross-worker sharing is safe.
type graphCache struct {
	mu      sync.Mutex
	entries map[string]*graphEntry
}

type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

func newGraphCache() *graphCache {
	return &graphCache{entries: map[string]*graphEntry{}}
}

// build returns the cached instance for (spec, seed), constructing it on
// first use. Deterministic families ignore the seed (the registry
// guarantees it), so they are keyed and built once per spec regardless of
// the suite's seed axis. Distinct instances still build concurrently on
// distinct workers; only duplicates wait.
func (c *graphCache) build(spec string, seed int64) (*graph.Graph, error) {
	key := spec
	if famName, _, _ := strings.Cut(spec, ":"); famName != "" {
		if fam, ok := gen.Lookup(famName); ok && fam.Random {
			key = fmt.Sprintf("%s|%d", spec, seed)
		}
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &graphEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.g, e.err = gen.Build(spec, seed) })
	return e.g, e.err
}

// panicError is a panic recovered at a runner isolation boundary, carrying
// the panic value and a trimmed stack into the error row.
type panicError struct {
	value any
	stack string
}

// newPanicError captures the recovered value and the current (trimmed)
// stack.
func newPanicError(v any) *panicError {
	return &panicError{value: v, stack: trimStack(debug.Stack())}
}

// Error renders "panic: <value>" followed by the trimmed stack.
func (e *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.value, e.stack)
}

// injected reports whether the panic was thrown by the chaos harness.
func (e *panicError) injected() bool {
	_, ok := e.value.(chaos.InjectedPanic)
	return ok
}

// maxStackLines bounds the stack carried into an error row — enough to
// locate the crash, small enough to keep JSONL rows readable.
const maxStackLines = 16

// trimStack keeps the head of a debug.Stack dump.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimRight(string(stack), "\n"), "\n")
	if len(lines) <= maxStackLines {
		return strings.Join(lines, "\n")
	}
	return strings.Join(lines[:maxStackLines], "\n") + "\n\t... (stack trimmed)"
}

// errRunTimeout marks a run attempt killed by the watchdog, matchable with
// errors.Is; the emitting row gets Outcome "timeout".
var errRunTimeout = errors.New("run timed out")

// execute runs one spec's execution function under the watchdog deadline,
// chaos injection, panic recovery, and the retry policy, returning the
// result, the attempts consumed, and the final error (nil on success,
// errRunTimeout-wrapped when every attempt timed out, the parent context
// error when the suite was cancelled mid-attempt — callers must not emit a
// row for that case).
func (cfg runConfig) execute(ctx context.Context, s Spec, run func(context.Context) (engine.Result, error)) (engine.Result, int, error) {
	id := s.ID()
	timeout := cfg.timeout
	if s.Timeout > 0 {
		timeout = s.Timeout
	}
	for attempt := 1; ; attempt++ {
		runCtx, cancelRun := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			runCtx, cancelRun = context.WithTimeout(ctx, timeout)
		}
		res, err := cfg.protectedRun(runCtx, id, attempt, run)
		timedOut := ctx.Err() == nil &&
			(errors.Is(runCtx.Err(), context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded))
		cancelRun()
		cfg.tel.attempt(attempt)
		if timedOut {
			cfg.tel.timeout()
		}
		if err != nil && injectedFault(err) {
			cfg.tel.chaosFault(chaos.SiteRun)
		}
		if ctx.Err() != nil {
			return res, attempt, ctx.Err()
		}
		if err == nil {
			return res, attempt, nil
		}
		if timedOut {
			err = fmt.Errorf("scenario: %w after %v (attempt %d)", errRunTimeout, timeout, attempt)
		}
		// Every failure reaching this point is run-stage and therefore
		// transient (timeout, injected fault, recovered panic, engine or
		// analysis error); deterministic spec failures never enter execute.
		if attempt > cfg.retries {
			return res, attempt, err
		}
		if !cfg.sleep(ctx, id, s.Seed, attempt) {
			return res, attempt, ctx.Err()
		}
	}
}

// protectedRun is the panic isolation boundary around one attempt: chaos
// injection plus the protocol/engine/analysis code, with panics recovered
// into panicError.
func (cfg runConfig) protectedRun(ctx context.Context, id string, attempt int, run func(context.Context) (engine.Result, error)) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
			cfg.tel.panicRecovered()
		}
	}()
	if cfg.chaos != nil {
		if err := cfg.chaos.Inject(ctx, chaos.SiteRun, id, attempt); err != nil {
			return res, err
		}
	}
	return run(ctx)
}

// buildGraph resolves a group's shared graph through the cache, with chaos
// injection at the build site and panic protection. Only injected faults
// retry here: a real build failure is a deterministic property of the spec.
func (cfg runConfig) buildGraph(ctx context.Context, key string, head Spec, cache *graphCache) (*graph.Graph, error) {
	for attempt := 1; ; attempt++ {
		g, err := func() (g *graph.Graph, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = newPanicError(r)
					cfg.tel.panicRecovered()
				}
			}()
			if cfg.chaos != nil {
				if err := cfg.chaos.Inject(ctx, chaos.SiteBuild, key, attempt); err != nil {
					return nil, err
				}
			}
			return cache.build(head.Graph, head.Seed)
		}()
		if err == nil {
			return g, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if injectedFault(err) {
			cfg.tel.chaosFault(chaos.SiteBuild)
		}
		if attempt > cfg.retries || !injectedFault(err) {
			return nil, err
		}
		if !cfg.sleep(ctx, key, head.Seed, attempt) {
			return nil, ctx.Err()
		}
	}
}

// injectedFault reports whether err is a chaos-injected error or panic.
func injectedFault(err error) bool {
	if chaos.IsInjected(err) {
		return true
	}
	var pe *panicError
	return errors.As(err, &pe) && pe.injected()
}

// sleep blocks for the capped exponential backoff of the given attempt,
// scaled by a jitter in [0.5, 1.5) seeded from (id, seed, attempt) so the
// delay schedule is deterministic per spec. Returns false when the context
// was cancelled while waiting.
func (cfg runConfig) sleep(ctx context.Context, id string, seed int64, attempt int) bool {
	base := cfg.backoff
	if base <= 0 {
		base = defaultBackoff
	}
	shift := attempt - 1
	if shift > 6 { // cap at 64x base
		shift = 6
	}
	d := base << shift
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", id, seed, attempt)
	jitter := 0.5 + float64(h.Sum64()>>11)/float64(uint64(1)<<53)
	d = time.Duration(float64(d) * jitter)
	cfg.tel.backoffSleep()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runGroup executes one group's specs on a shared graph and Session,
// emitting one Result per spec. Panics anywhere inside — protocol, engine,
// analysis, or the group bookkeeping itself — degrade to error rows for the
// specs still missing one, so a crashing group never takes down the suite.
func runGroup(ctx context.Context, grp *group, cache *graphCache, cfg runConfig, out chan<- Result) {
	done := make([]bool, len(grp.specs))
	emit := func(i int, res Result) bool {
		done[i] = true
		select {
		case out <- res:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// n/m are stamped onto every Result once the graph exists, so failure
	// rows after construction still attribute to the instance size.
	var n, m int
	defer func() {
		if r := recover(); r != nil {
			err := newPanicError(r)
			cfg.tel.panicRecovered()
			for i, s := range grp.specs {
				if done[i] {
					continue
				}
				if !emit(i, Result{Spec: s, N: n, M: m, Err: err.Error()}) {
					return
				}
			}
		}
	}()
	fail := func(idx []int, err error) {
		for _, i := range idx {
			if !emit(i, Result{Spec: grp.specs[i], N: n, M: m, Err: err.Error()}) {
				return
			}
		}
	}
	all := make([]int, len(grp.specs))
	for i := range all {
		all[i] = i
	}
	head := grp.specs[0]
	g, err := cfg.buildGraph(ctx, grp.key, head, cache)
	if err != nil {
		if ctx.Err() == nil {
			fail(all, err)
		}
		return
	}
	n, m = g.N(), g.M()
	opts, err := sessionOptions(head)
	if err != nil {
		fail(all, err)
		return
	}
	var runnable []int
	for i, s := range grp.specs {
		if err := badOrigin(g, s.Origins); err != nil {
			if !emit(i, Result{Spec: s, N: n, M: m, Err: err.Error()}) {
				return
			}
			continue
		}
		runnable = append(runnable, i)
	}
	if len(runnable) == 0 {
		return
	}
	// One Session runs every spec of the group, each from its own origins.
	sess, err := sim.New(g, opts...)
	if err != nil {
		fail(runnable, err)
		return
	}
	for _, i := range runnable {
		s := grp.specs[i]
		if ctx.Err() != nil {
			return
		}
		res, attempts, runErr := cfg.execute(ctx, s, func(rc context.Context) (engine.Result, error) {
			return sess.RunFrom(rc, s.Origins)
		})
		if ctx.Err() != nil {
			return
		}
		// An exhausted watchdog makes an Outcome "timeout" row.
		row := Result{Spec: s, N: n, M: m, Attempts: attempts}
		if runErr != nil {
			row.Err = runErr.Error()
			if errors.Is(runErr, errRunTimeout) {
				row.Outcome = "timeout"
			}
		} else {
			row.fill(res)
			cfg.tel.runPhases(res.Phases)
		}
		if !emit(i, row) {
			return
		}
	}
}

// fill copies one engine result into the scenario result row.
func (out *Result) fill(r engine.Result) {
	out.Rounds, out.TotalMessages, out.Lost = r.Rounds, r.TotalMessages, r.Lost
	out.Terminated, out.Stopped = r.Terminated, r.Stopped
	out.Outcome = r.Outcome.String()
	if r.Certificate != nil {
		out.CycleStart, out.CycleLength = r.Certificate.Start, r.Certificate.Length
	}
	out.Metrics = r.Metrics
	out.WallMicros = r.WallTime.Microseconds()
}

// sessionOptions assembles the sim options a group's specs share: all
// of a spec but its origins, which each run passes to Session.RunFrom.
func sessionOptions(s Spec) ([]sim.Option, error) {
	opts, err := s.engineOptions()
	if err != nil {
		return nil, err
	}
	opts = append(opts, sim.WithProtocol(s.Protocol), sim.WithSeed(s.Seed), sim.WithMaxRounds(s.MaxRounds))
	if len(s.Analyses) > 0 {
		opts = append(opts, sim.WithAnalysis(s.Analyses...))
	}
	return opts, nil
}

// badOrigin reports the first origin outside the graph, or nil.
func badOrigin(g *graph.Graph, origins []graph.NodeID) error {
	for _, o := range origins {
		if !g.HasNode(o) {
			return fmt.Errorf("origin %d is not a node of %s", o, g)
		}
	}
	return nil
}
