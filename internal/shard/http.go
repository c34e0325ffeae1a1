package shard

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"amnesiacflood/internal/obs"
)

// This file is the coordinator's HTTP surface. The endpoints are a pull
// protocol — workers poll for leases, so the coordinator needs no worker
// registry, no push channel, and no reachable workers: a worker that
// vanishes simply stops polling and its lease expires.
//
//	POST /v1/lease     {worker}                 -> LeaseResponse
//	POST /v1/complete  {leaseId, groupId, rows} -> CompleteResponse (body may be gzip)
//	POST /v1/renew     {leaseId}                -> RenewResponse
//	GET  /v1/status                             -> StatusResponse
//	GET  /healthz                               -> {"status":"ok"|"complete", "stats":...}

// maxBodyBytes bounds request bodies (after decompression): 64 MiB of rows
// is far beyond any group a sane matrix produces.
const maxBodyBytes = 64 << 20

// Handler returns the coordinator's route table.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/renew", c.handleRenew)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// decodeBody decodes a JSON body, transparently gunzipping when the request
// declares Content-Encoding: gzip (the worker always compresses result
// uploads).
func decodeBody(r *http.Request, v any) error {
	var src io.Reader = http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return fmt.Errorf("gzip body: %w", err)
		}
		defer zr.Close()
		src = io.LimitReader(zr, maxBodyBytes)
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeJSON shapes one response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError shapes one failure.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// handleLease is POST /v1/lease.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	writeJSON(w, http.StatusOK, c.lease(req.Worker))
}

// handleComplete is POST /v1/complete. Wire bytes (pre-decompression) feed
// the upload-bytes counter through a counting reader, so the metric reflects
// what actually crossed the network, not the inflated JSON.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	r.Body = struct {
		io.Reader
		io.Closer
	}{&countingReader{r: r.Body, c: c.metrics.uploadBytes}, r.Body}
	var req CompleteRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp, err := c.complete(&req)
	if err != nil {
		status := http.StatusInternalServerError // the sink failed
		if errors.Is(err, errUnknownGroup) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRenew is POST /v1/renew.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, c.renew(req.LeaseID))
}

// handleStatus is GET /v1/status.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// healthResponse is GET /healthz.
type healthResponse struct {
	Status string `json:"status"`
	// UptimeSeconds is whole seconds since the coordinator was built.
	UptimeSeconds int64 `json:"uptimeSeconds"`
	// Version is the main module's build version ("unknown" for plain
	// source builds without module metadata).
	Version string         `json:"version"`
	Stats   StatusResponse `json:"stats"`
}

// handleHealthz is GET /healthz: "ok" while distributing, "complete" once
// the suite is merged (or aborted) — the signal shard workers and smoke
// scripts key off.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := c.Status()
	status := "ok"
	if st.Complete {
		status = "complete"
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        status,
		UptimeSeconds: int64(time.Since(c.started) / time.Second),
		Version:       obs.Version(),
		Stats:         st,
	})
}
