// Package amnesiacflood is a from-scratch Go reproduction of
//
//	Walter Hussak and Amitabh Trehan.
//	"Brief Announcement: On Termination of a Flooding Process." PODC 2019.
//
// Amnesiac Flooding (AF) is flooding without memory: a distinguished node
// sends a message M to all its neighbours in round 1, and in every later
// round each node that received M forwards it to exactly those neighbours it
// did not receive it from — remembering nothing between rounds. The paper
// proves AF nevertheless terminates on every finite graph: in exactly
// e(source) rounds on connected bipartite graphs (a parallel BFS) and within
// 2D+1 rounds in general, while a natural asynchronous variant can be kept
// alive forever by a scheduling adversary.
//
// The repository reproduces every evaluation artifact of the paper (Figures
// 1-5 and Theorems 3.1/3.3; experiments.All() indexes them, and
// internal/experiments/testdata/runall.txt pins their tables) on four
// interchangeable synchronous substrates — a deterministic sequential
// reference engine, a goroutine-per-node channel engine, a zero-allocation
// compressed-sparse-row engine, and a word-parallel bitset frontier engine
// that executes set-rule protocols (amnesiac, classic) as OR/AND-NOT sweeps
// over packed directed edge slots, with a push kernel for sparse rounds and
// a dense kernel that derives saturated rounds from the previous round's
// messages and responders — plus one model engine for the asynchronous and
// dynamic-network models, with pluggable adversaries/schedules and
// configuration-cycle non-termination certificates. The engines are
// trace-equivalent: byte-identical traces on every protocol (and, for the
// model engine, under the zero-delay adversary and the static schedule),
// asserted by differential and fuzz tests (internal/engine/README.md
// documents the determinism contract and the performance numbers).
//
// The public face of the simulator is the internal/sim façade: protocols
// self-register by name (amnesiac, classic, multiflood; importing
// internal/registry/all links every one of them and the model families),
// engines are one EngineKind enum, and a Session composed from
// functional options runs any protocol × engine pair under a cancellable
// context.Context with stop-capable streaming RoundObservers:
//
//	sess, _ := sim.New(g, sim.WithProtocol("amnesiac"), sim.WithEngine(sim.Fast))
//	res, err := sess.Run(ctx)
//
// The execution model is a fourth registry-driven axis (internal/model):
// adversaries (internal/async) and schedules (internal/dynamic)
// self-register under a round-trippable spec grammar — "adversary:collision"
// is the paper's Figure 5 delaying scheduler, "schedule:blink:period=2" a
// flapping link — and sim.WithModel runs amnesiac flooding under them on
// one packed-arena model engine, where an adversary delays each copy of M
// and a schedule may lose it, and which certifies non-termination by
// configuration repetition (Result.Outcome, Result.Certificate). Faults are
// schedules too, because a schedule sees each copy directed: a lost copy is
// an edge down for one round ("schedule:outage:round=1,u=0,v=3"), seeded
// random loss is "schedule:loss:p=0.05", and
// "schedule:crash:nodes=2+5,round=2" takes nodes down for good:
//
//	sess, _ := sim.New(g, sim.WithModel("adversary:collision"), sim.WithTrace(true))
//	res, _ := sess.Run(ctx) // res.Outcome == engine.OutcomeCycle on odd cycles
//
// Graphs are equally registry-driven: every family in internal/graph/gen
// self-registers under a canonical spec grammar ("grid:rows=64,cols=64",
// "gnp:n=200,p=0.05,connect=true"; afsim -list enumerates it), with
// seeded-deterministic random families. A graph.Graph is its CSR, one
// arena of sorted neighbour rows that every accessor and engine reads.
// Large random instances build streamed, straight into it: gnp's geometric
// skip sampler emits its edges in row order, which graph.FromRows lays out
// in one pass, and unordered streams (prefattach, the rmat recursive-matrix
// family, edgefile:path=... edge-list loading, connect=true's bridges)
// fill it in two passes through graph.FromStream. So million-node graphs
// construct without an O(n²) scan or intermediate edge list; the small
// families' Builder sorts its edges into row order and ends in
// graph.FromRows too. internal/scenario closes the
// protocol × engine × graph cross-product: a Matrix of axis values expands
// into declarative run Specs, and a bounded-worker Runner executes the
// suite with per-worker arena reuse, streaming results to JSONL/CSV/
// aggregate sinks (see internal/scenario/README.md for the grammar and
// examples):
//
//	specs, _ := scenario.Matrix{Graphs: []string{"grid:rows=8,cols=8", "cycle:n=65"},
//	        Protocols: []string{"amnesiac", "classic"},
//	        Engines:   []string{"sequential", "fast"}}.Expand()
//	results, _ := (&scenario.Runner{Workers: 8}).Run(ctx, specs)
//
// Measurement is the fifth registry-driven axis (internal/analysis): every
// metric the paper reasons about is a self-registered *streaming* analysis
// under the same spec grammar — "coverage" (per-node receive counts),
// "termination" (rounds vs. the e(S)..2D+1 window of the origin set S,
// certified in O(n+m) by a two-sweep diameter bound, the exact double-cover
// law checked round by round for one origin or several, and per-family
// closed forms for one origin), "bipartite" (odd-cycle witnesses,
// early-stopping), "spantree"
// (BFS tree), "echo" (the Dijkstra–Scholten detection baseline), and
// "quantiles" (metric promotion for suite-level stats). Analyses observe
// runs round by round with session-owned reusable buffers — no trace is
// retained or re-walked — and their merged metrics land in Result.Metrics
// ("<family>.<metric>" keys), flow through every scenario sink as columns,
// and are summarised per cell by scenario.Aggregate:
//
//	sess, _ := sim.New(g, sim.WithAnalysis("coverage", "termination", "bipartite"))
//	res, _ := sess.Run(ctx) // res.Metrics["termination.closedFormOK"] == 1
//
// All five axes share one typed-parameter spec grammar — the
// internal/specgrammar kernel: declared parameters with kinds and defaults,
// canonical declared-order rendering, and a Parse/String round-trip
// guarantee, instantiated identically by the graph, model, and analysis
// registries.
//
// The serving layer closes the loop from library to system: internal/service
// (daemonised as cmd/afsimd) is a multi-tenant HTTP/JSON façade over the
// same five axes — POST /v1/run executes one spec-addressed run over a pool
// of reusable sessions and streams per-round analysis events as NDJSON/SSE,
// POST /v1/sweep streams a scenario matrix row by row, GET /v1/registry
// enumerates everything runnable — under production serving discipline:
// per-request timeouts, panic isolation, per-tenant token-bucket admission
// with in-flight caps, a bounded run queue with fair round-robin dispatch
// (429 + Retry-After on saturation), and graceful drain on SIGTERM:
//
//	curl -N localhost:8080/v1/run -d '{"graph":"grid:rows=64,cols=64","analyses":["coverage"]}'
//
// Suites also distribute across machines: internal/shard (daemonised as
// cmd/afshard) partitions a scenario matrix into session-sharing spec groups
// and leases them over HTTP to shard workers, which execute each group
// through the ordinary resilient scenario runner and upload the rows
// gzip-compressed. Leases carry TTLs — a worker killed mid-suite silently
// loses its lease and the next idle worker steals the group — completions
// merge first-write-wins through an optional resumable manifest, and because
// every row is a deterministic function of its spec, the merged suite is
// order-normalised byte-identical to a single-process run under any worker
// count, worker kills, or chaos injection (`make suite-shard` gates on it).
// `afbench -suite -shard-workers 4` runs the same fan-out in-process;
// `-shard-coordinator :9090` lets external workers join:
//
//	afshard -mode coordinator -addr :9090 -graphs "grid:rows=8,cols=8" -out suite.jsonl.gz
//	afshard -mode worker -coordinator http://host:9090
//
// Both daemons are observable without perturbing what they observe:
// internal/obs is a dependency-free metrics kernel (atomic counters,
// gauges, and histograms behind labeled families, rendered in the
// Prometheus text exposition), and afsimd and the afshard coordinator each
// serve GET /metrics from it — request/admission/queue-wait/run-latency
// and per-phase (build/run/analyze) timing families on the service,
// lease/steal/merge/upload families on the coordinator, and scenario_*
// runner resilience counters (attempts, retries, timeouts, recovered
// panics, chaos injections) everywhere a resilient runner executes.
// `afbench -suite` prints the same counters as an end-of-suite telemetry
// stanza. Both daemons log through structured log/slog (-log-level), and
// instrumentation sits strictly on the observing side of every decision:
// differential tests in internal/scenario assert byte-identical traces and
// suite rows with metrics on and off, under the race detector.
//
// Packages:
//
//	internal/sim              façade: protocol registry, session API, observers, model + analysis axes
//	internal/service          multi-tenant HTTP serving layer: session pool, admission control, streaming
//	internal/specgrammar      shared typed-parameter spec-grammar kernel of every registry
//	internal/model            execution-model registry, the packed model engine, certificates
//	internal/analysis         streaming-analysis registry: coverage, termination, bipartite, spantree, echo, quantiles
//	internal/analysis/analysistest frozen post-hoc bipartite/spantree walks, test-only differential oracles
//	internal/scenario         declarative suites: spec matrix, pooled runner, sinks, metric columns
//	internal/shard            distributed suite sharding: lease protocol, work stealing, resumable merge
//	internal/obs              metrics kernel: atomic counters/gauges/histograms, Prometheus text exposition
//	internal/graph            immutable simple graphs stored as their CSR, builder, encodings
//	internal/graph/gen        graph families behind a spec-grammar registry
//	internal/graph/algo       BFS, diameter and its two-sweep lower bound, bipartiteness ground truth
//	internal/engine           synchronous round engine + Protocol/RoundObserver
//	internal/engine/chanengine concurrent channel-based engine
//	internal/engine/fastengine zero-allocation CSR engine
//	internal/engine/bitengine  word-parallel bitset frontier engine, push and dense kernels
//	internal/core             the Amnesiac Flooding protocol
//	internal/classic          flag-based flooding baseline
//	internal/async            delay adversaries of the asynchronous model
//	internal/doublecover      the exact law via the bipartite double cover (one reusable parity BFS per origin set)
//	internal/theory           the paper's lemmas/theorems as executable checks; CheckLaw reads termination's verdict
//	internal/dynamic          schedules of the dynamic model: edge churn, message loss, crashes
//	internal/multiflood       concurrent broadcasts, union replay protocol
//	internal/termdetect       Dijkstra-Scholten termination detection baseline
//	internal/stats            summary statistics for aggregate sweeps
//	internal/trace            figure-style trace rendering and export
//	internal/experiments      one registered experiment per paper artifact
//	internal/registry/all     blank imports linking every self-registering protocol and model family
//
// Binaries: cmd/afsim (single runs, any registered protocol on any engine
// on any graph spec under any -model, with -analyze attaching streaming
// analyses; -list prints every registry), cmd/afbench (paper experiment
// suite, or a scenario matrix with -suite and the
// -graphs/-protocols/-engines/-models/-analyses axes, sharded across workers
// with -shard-workers/-shard-coordinator), cmd/afviz (trace rendering;
// -graph/-list mirror afsim), cmd/afsimd (the simulation daemon; see
// internal/service/README.md), cmd/afshard (distributed suite coordinator
// and workers; see internal/shard/README.md). Runnable examples live under
// examples/.
package amnesiacflood
