package shard

import (
	"time"

	"amnesiacflood/internal/scenario"
)

// This file is the coordinator/worker wire format. The payload of the
// protocol is scenario data that already round-trips as JSON: every axis of
// a scenario.Spec is a canonical spec string of its registry (the
// internal/specgrammar grammar internal/service also speaks), and every
// scenario.Result is a deterministic function of its Spec, so rows merged
// from any worker are byte-identical to rows the coordinator would have
// computed itself.

// Lease statuses a coordinator answers a lease/renew request with.
const (
	// StatusLease grants a spec group (LeaseResponse carries it).
	StatusLease = "lease"
	// StatusWait means every remaining group is currently leased; poll
	// again after RetryMs.
	StatusWait = "wait"
	// StatusDone means the suite is complete (or aborted): the worker
	// should exit.
	StatusDone = "done"
	// StatusOK acknowledges a completion or renewal.
	StatusOK = "ok"
	// StatusStale rejects a completion/renewal whose lease is no longer
	// current (the group expired and was reassigned, or is already done).
	StatusStale = "stale"
)

// LeaseRequest is the body of POST /v1/lease: a worker asking for work.
type LeaseRequest struct {
	// Worker names the requester (free-form; used for lease attribution
	// and logs).
	Worker string `json:"worker"`
}

// RunConfig is the execution policy the coordinator pushes to every worker
// with each lease, so a suite runs under one uniform resilience policy no
// matter which machine executes which group (the determinism contract needs
// chaos injection, retries, and watchdogs to be worker-independent).
type RunConfig struct {
	// TimeoutMs is the per-run watchdog (scenario.Runner.RunTimeout).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Retries and BackoffMs mirror scenario.Runner.Retries/Backoff.
	Retries   int   `json:"retries,omitempty"`
	BackoffMs int64 `json:"backoffMs,omitempty"`
	// Chaos is the fault-injection spec every worker arms
	// (internal/chaos grammar); empty means no injection.
	Chaos string `json:"chaos,omitempty"`
}

// runTimeout converts the wire policy back to runner fields.
func (c RunConfig) runTimeout() time.Duration { return time.Duration(c.TimeoutMs) * time.Millisecond }

func (c RunConfig) backoff() time.Duration { return time.Duration(c.BackoffMs) * time.Millisecond }

// LeaseResponse answers POST /v1/lease.
type LeaseResponse struct {
	// Status is StatusLease, StatusWait, or StatusDone.
	Status string `json:"status"`
	// LeaseID identifies the grant; completions and renewals must echo it.
	LeaseID string `json:"leaseId,omitempty"`
	// GroupID names the granted spec group.
	GroupID string `json:"groupId,omitempty"`
	// Specs is the granted group's spec list (StatusLease only). All specs
	// of a group share scenario.GroupKey, so the executing runner gets
	// session/arena reuse.
	Specs []scenario.Spec `json:"specs,omitempty"`
	// TTLMs is the lease duration: the worker must complete or renew
	// within it, or the coordinator reassigns the group. A duration rather
	// than a wall-clock instant, so machines need not agree on clocks.
	TTLMs int64 `json:"ttlMs,omitempty"`
	// RetryMs tells a StatusWait worker how long to sleep before polling
	// again.
	RetryMs int64 `json:"retryMs,omitempty"`
	// Config is the uniform execution policy (StatusLease only).
	Config RunConfig `json:"config,omitempty"`
}

// CompleteRequest is the body of POST /v1/complete: one executed group's
// rows. Bodies may be gzip-compressed (Content-Encoding: gzip) — the worker
// always compresses, keeping large row uploads cheap on the wire.
type CompleteRequest struct {
	LeaseID string `json:"leaseId"`
	GroupID string `json:"groupId"`
	Worker  string `json:"worker"`
	// Rows carries one scenario.Result per spec of the group.
	Rows []scenario.Result `json:"rows"`
}

// CompleteResponse answers POST /v1/complete with StatusOK (rows merged) or
// StatusStale (the group was already completed elsewhere; the rows were
// redundant and dropped — first write wins).
type CompleteResponse struct {
	Status string `json:"status"`
	// Merged counts the rows this upload newly contributed (0 when stale).
	Merged int `json:"merged"`
}

// RenewRequest is the body of POST /v1/renew: a heartbeat extending a live
// lease.
type RenewRequest struct {
	LeaseID string `json:"leaseId"`
	Worker  string `json:"worker"`
}

// RenewResponse answers POST /v1/renew. StatusOK extends the lease by TTLMs;
// StatusStale tells the worker its lease was reassigned (it should abandon
// the group — any upload it still makes is merged first-write-wins, so
// racing a thief is harmless); StatusDone means the suite finished.
type RenewResponse struct {
	Status string `json:"status"`
	TTLMs  int64  `json:"ttlMs,omitempty"`
}

// StatusResponse is GET /v1/status (and the stats block of GET /healthz):
// coordinator occupancy for dashboards and smoke scripts.
type StatusResponse struct {
	// Groups counts partitioned spec groups; Pending/Leased/Done split
	// them by state.
	Groups  int `json:"groups"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Specs and Rows count suite cells and merged result rows (Rows
	// includes rows replayed from a resumed manifest).
	Specs int `json:"specs"`
	Rows  int `json:"rows"`
	// Replayed counts rows restored from the manifest at construction —
	// work a resumed coordinator did not recompute.
	Replayed int `json:"replayed"`
	// Steals counts expired-lease reassignments.
	Steals int `json:"steals"`
	// Complete is true once every group is done (or the suite aborted).
	Complete bool `json:"complete"`
}

// ErrorResponse is the JSON body of every non-2xx coordinator response.
type ErrorResponse struct {
	Error string `json:"error"`
}
