package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"

	// Protocols under test self-register on import.
	_ "amnesiacflood/internal/registry/all"
)

// quiet drops lease-lifecycle chatter from test output.
var quiet = slog.New(slog.DiscardHandler)

// testMatrix is the invariance matrix: several session-sharing groups (three
// graph families × two protocols), two seeds each.
func testMatrix(t *testing.T) []scenario.Spec {
	t.Helper()
	specs, err := scenario.Matrix{
		Graphs:    []string{"cycle:n=9", "grid:rows=3,cols=4", "path:n=6"},
		Protocols: []string{"amnesiac", "classic"},
		Seeds:     []int64{1, 2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// normalize order-normalises results: sorted by spec ID with the two
// execution-dependent fields zeroed.
func normalize(results []scenario.Result) []scenario.Result {
	out := append([]scenario.Result(nil), results...)
	for i := range out {
		out[i].WallMicros = 0
		out[i].Attempts = 0
	}
	scenario.SortResults(out)
	return out
}

// jsonLines renders normalised results exactly as the JSONL sink would — the
// byte-identity form the subsystem promises.
func jsonLines(t *testing.T, results []scenario.Result) string {
	t.Helper()
	var b strings.Builder
	for _, res := range normalize(results) {
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// baseline runs specs through the ordinary single-process runner.
func baseline(t *testing.T, specs []scenario.Spec) []scenario.Result {
	t.Helper()
	results, err := (&scenario.Runner{}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// shardedRun executes specs through a coordinator served over real HTTP with
// n workers, returning the merged results and the final coordinator status.
// mkClient, when non-nil, builds worker i's HTTP client (fault injection).
func shardedRun(t *testing.T, specs []scenario.Spec, n int, cfg shard.CoordinatorConfig,
	mkClient func(i int, cancel context.CancelFunc) *http.Client) ([]scenario.Result, shard.StatusResponse) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	coord, err := shard.NewCoordinator(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		workerCtx, workerCancel := context.WithCancel(ctx)
		defer workerCancel()
		wcfg := shard.WorkerConfig{
			Coordinator:  srv.URL,
			Name:         fmt.Sprintf("w%d", i),
			PollInterval: 2 * time.Millisecond,
			Logger:       quiet,
		}
		if mkClient != nil {
			wcfg.Client = mkClient(i, workerCancel)
		}
		w, err := shard.NewWorker(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(workerCtx); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	results, err := coord.Wait(ctx)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return results, coord.Status()
}

// TestShardWorkerCountInvariance: the same matrix through 1, 2, 4, and 8
// workers merges byte-identical (order-normalised JSONL) to a single-process
// run. The matrix repeats a spec: both sides keep one row for it.
func TestShardWorkerCountInvariance(t *testing.T) {
	specs := testMatrix(t)
	specs = append(specs, specs[len(specs)/2])
	ids := map[string]bool{}
	for _, s := range specs {
		ids[s.ID()] = true
	}
	want := jsonLines(t, baseline(t, specs))
	if rows := strings.Count(want, "\n"); rows != len(ids) {
		t.Fatalf("single-process baseline has %d rows, want %d distinct specs", rows, len(ids))
	}
	for _, n := range []int{1, 2, 4, 8} {
		results, st := shardedRun(t, specs, n, shard.CoordinatorConfig{}, nil)
		if got := jsonLines(t, results); got != want {
			t.Errorf("%d workers diverged from the single-process baseline:\n%s\nvs\n%s", n, got, want)
		}
		if st.Rows != len(ids) || !st.Complete {
			t.Errorf("%d workers: status %+v, want %d rows complete", n, st, len(ids))
		}
	}
}

// killOnComplete fails a worker's first result upload and cancels the worker
// — a worker killed mid-suite, after computing a group but before delivering
// it. Its lease must expire and another worker must steal the group.
type killOnComplete struct {
	kill context.CancelFunc
	once sync.Once
}

func (k *killOnComplete) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/v1/complete") {
		k.once.Do(k.kill)
		return nil, errors.New("worker killed mid-upload")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestShardKilledWorkerSteal: one of two workers dies mid-suite holding a
// lease; the survivor steals the group and the merged output still matches
// the single-process baseline.
func TestShardKilledWorkerSteal(t *testing.T) {
	specs := testMatrix(t)
	want := jsonLines(t, baseline(t, specs))
	cfg := shard.CoordinatorConfig{LeaseTTL: 50 * time.Millisecond}
	results, st := shardedRun(t, specs, 2, cfg, func(i int, cancel context.CancelFunc) *http.Client {
		if i != 0 {
			return nil // default client
		}
		return &http.Client{Transport: &killOnComplete{kill: cancel}}
	})
	if got := jsonLines(t, results); got != want {
		t.Fatalf("suite with a killed worker diverged:\n%s\nvs\n%s", got, want)
	}
	if st.Steals == 0 {
		t.Error("killed worker's lease was never stolen")
	}
}

// TestShardChaosInvariance: a sharded suite under deterministic fault
// injection with retries converges to the same bytes as the clean baseline —
// the differential chaos gate, distributed.
func TestShardChaosInvariance(t *testing.T) {
	specs := testMatrix(t)
	want := jsonLines(t, baseline(t, specs))
	cfg := shard.CoordinatorConfig{
		Run: shard.RunConfig{
			Chaos:     "chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=1ms",
			Retries:   8,
			BackoffMs: 1,
			TimeoutMs: 30_000,
		},
	}
	results, _ := shardedRun(t, specs, 4, cfg, nil)
	if got := jsonLines(t, results); got != want {
		t.Fatalf("chaotic sharded suite diverged from the clean baseline:\n%s\nvs\n%s", got, want)
	}
}

// TestShardBadChaosSpec: a malformed chaos spec fails coordinator
// construction, before any worker is involved.
func TestShardBadChaosSpec(t *testing.T) {
	if _, err := shard.NewCoordinator(testMatrix(t), shard.CoordinatorConfig{
		Run: shard.RunConfig{Chaos: "chaos:rate=2"}, Logger: quiet,
	}); err == nil {
		t.Fatal("coordinator accepted a chaos rate outside [0,1]")
	}
	if _, err := shard.NewCoordinator(nil, shard.CoordinatorConfig{Logger: quiet}); err == nil {
		t.Fatal("coordinator accepted an empty suite")
	}
}

// TestShardResume: a coordinator restarted over a completed manifest replays
// every row without leasing anything; one restarted over a partial manifest
// leases only the missing groups.
func TestShardResume(t *testing.T) {
	specs := testMatrix(t)
	want := jsonLines(t, baseline(t, specs))
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")

	m, err := scenario.OpenManifest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	first, st := shardedRun(t, specs, 2, shard.CoordinatorConfig{Manifest: m}, nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := jsonLines(t, first); got != want {
		t.Fatalf("journaled suite diverged:\n%s\nvs\n%s", got, want)
	}
	if st.Replayed != 0 {
		t.Fatalf("fresh run replayed %d rows", st.Replayed)
	}

	// Restart over the completed journal: everything replays, nothing runs.
	m2, err := scenario.OpenManifest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	coord, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{Manifest: m2, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("fully journaled coordinator is not immediately done")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resumed, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := jsonLines(t, resumed); got != want {
		t.Fatalf("resumed suite diverged:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Status(); st.Replayed != len(specs) {
		t.Fatalf("resume replayed %d rows, want %d", st.Replayed, len(specs))
	}
}

// TestShardPartialResume: a manifest journaling half the suite resumes with
// only the rest leased out, and the merge is still byte-identical.
func TestShardPartialResume(t *testing.T) {
	specs := testMatrix(t)
	base := baseline(t, specs)
	want := jsonLines(t, base)
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")

	m, err := scenario.OpenManifest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range base[:len(base)/2] {
		if err := m.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := scenario.OpenManifest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	results, st := shardedRun(t, specs, 2, shard.CoordinatorConfig{Manifest: m2}, nil)
	if got := jsonLines(t, results); got != want {
		t.Fatalf("partially resumed suite diverged:\n%s\nvs\n%s", got, want)
	}
	if st.Replayed != len(base)/2 {
		t.Fatalf("resume replayed %d rows, want %d", st.Replayed, len(base)/2)
	}
}

// TestShardGhostLeaseExpiry drives the lease protocol over HTTP by hand: a
// ghost worker leases a group and vanishes; after the TTL its renewal is
// stale and the group is re-leased to someone else.
func TestShardGhostLeaseExpiry(t *testing.T) {
	specs := testMatrix(t)
	coord, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{
		LeaseTTL: 30 * time.Millisecond, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var ghost shard.LeaseResponse
	postJSON(t, srv.URL+"/v1/lease", shard.LeaseRequest{Worker: "ghost"}, &ghost)
	if ghost.Status != shard.StatusLease {
		t.Fatalf("ghost lease status %q", ghost.Status)
	}
	if len(ghost.Specs) == 0 || ghost.TTLMs != 30 {
		t.Fatalf("ghost lease malformed: %+v", ghost)
	}

	// Within the TTL the lease renews; after it, it is stale.
	var renew shard.RenewResponse
	postJSON(t, srv.URL+"/v1/renew", shard.RenewRequest{LeaseID: ghost.LeaseID, Worker: "ghost"}, &renew)
	if renew.Status != shard.StatusOK {
		t.Fatalf("live renewal answered %q", renew.Status)
	}
	time.Sleep(60 * time.Millisecond)

	var steal shard.LeaseResponse
	postJSON(t, srv.URL+"/v1/lease", shard.LeaseRequest{Worker: "thief"}, &steal)
	if steal.Status != shard.StatusLease || steal.GroupID != ghost.GroupID {
		t.Fatalf("thief got %+v, want the ghost's group %s", steal, ghost.GroupID)
	}
	postJSON(t, srv.URL+"/v1/renew", shard.RenewRequest{LeaseID: ghost.LeaseID, Worker: "ghost"}, &renew)
	if renew.Status != shard.StatusStale {
		t.Fatalf("expired renewal answered %q, want %q", renew.Status, shard.StatusStale)
	}
	if st := coord.Status(); st.Steals != 1 {
		t.Fatalf("steals = %d, want 1", st.Steals)
	}

	// The ghost finishes anyway and uploads: first-write-wins merges its
	// rows (the thief hasn't delivered), and the late thief upload is stale.
	rows, err := (&scenario.Runner{}).Run(context.Background(), ghost.Specs)
	if err != nil {
		t.Fatal(err)
	}
	var done shard.CompleteResponse
	postJSON(t, srv.URL+"/v1/complete", shard.CompleteRequest{
		LeaseID: ghost.LeaseID, GroupID: ghost.GroupID, Worker: "ghost", Rows: rows,
	}, &done)
	if done.Merged != len(rows) {
		t.Fatalf("ghost upload merged %d rows, want %d", done.Merged, len(rows))
	}
	postJSON(t, srv.URL+"/v1/complete", shard.CompleteRequest{
		LeaseID: steal.LeaseID, GroupID: steal.GroupID, Worker: "thief", Rows: rows,
	}, &done)
	if done.Status != shard.StatusStale || done.Merged != 0 {
		t.Fatalf("duplicate upload answered %+v, want stale/0", done)
	}
}

// TestShardHTTPSurface covers the auxiliary endpoints and request
// validation: healthz flips to complete, status counts add up, malformed
// and unknown-field bodies are rejected.
func TestShardHTTPSurface(t *testing.T) {
	specs := testMatrix(t)
	coord, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string               `json:"status"`
		Stats  shard.StatusResponse `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Stats.Specs != len(specs) || health.Stats.Pending == 0 {
		t.Fatalf("healthz = %+v", health)
	}

	for _, body := range []string{"{", `{"nosuchfield":1}`} {
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q answered %d, want 400", body, resp.StatusCode)
		}
	}

	var done shard.CompleteResponse
	if err := postJSONErr(srv.URL+"/v1/complete", shard.CompleteRequest{
		LeaseID: "none", GroupID: "nosuch", Worker: "x",
	}, &done); err == nil {
		t.Error("completion for an unknown group succeeded")
	}
}

// postJSON posts one request and decodes the response, failing the test on
// any error.
func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	if err := postJSONErr(url, body, out); err != nil {
		t.Fatal(err)
	}
}

func postJSONErr(url string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
