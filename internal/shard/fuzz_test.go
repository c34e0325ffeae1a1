package shard_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/shard"
)

// Body encodings FuzzCoordinatorBodies sends.
const (
	plainBody = iota // the bytes as they are
	gzipBody         // the bytes gzip-compressed, labelled gzip
	fakeGzip         // the bytes as they are, labelled gzip
	bodyModes
)

var fuzzPaths = []string{"/v1/lease", "/v1/complete", "/v1/renew"}

// recordSink keeps every merged row.
type recordSink struct{ rows []scenario.Result }

func (s *recordSink) Write(r scenario.Result) error {
	s.rows = append(s.rows, r)
	return nil
}

// decodes reports whether the coordinator can decode body for path: it
// mirrors the coordinator's own decoding (optional gunzip, then one JSON
// value into the endpoint's request type, unknown fields refused).
func decodes(path string, body []byte, gzipped bool) (shard.CompleteRequest, bool) {
	var src io.Reader = bytes.NewReader(body)
	if gzipped {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return shard.CompleteRequest{}, false
		}
		src = zr
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var complete shard.CompleteRequest
	var err error
	switch path {
	case "/v1/lease":
		err = dec.Decode(&shard.LeaseRequest{})
	case "/v1/complete":
		err = dec.Decode(&complete)
	default:
		err = dec.Decode(&shard.RenewRequest{})
	}
	return complete, err == nil
}

// FuzzCoordinatorBodies posts arbitrary bytes, plain and gzip-compressed, to
// the lease, complete and renew endpoints of a fresh coordinator through
// Coordinator.Handler. The handler must never panic, must answer a body it
// cannot decode with a 4xx, must never merge a row whose spec is outside
// the group an upload names, and must keep Status().Rows <= Status().Specs.
func FuzzCoordinatorBodies(f *testing.F) {
	specs, err := scenario.Matrix{
		Graphs: []string{"cycle:n=5", "path:n=4"},
		Seeds:  []int64{1, 2},
	}.Expand()
	if err != nil {
		f.Fatal(err)
	}
	newCoordinator := func(sink scenario.Sink) *shard.Coordinator {
		c, err := shard.NewCoordinator(specs, shard.CoordinatorConfig{Logger: quiet, Sink: sink})
		if err != nil {
			f.Fatal(err)
		}
		return c
	}
	// Learn the partition by leasing every group of one coordinator, and
	// run each group once for well-formed uploads.
	groups := map[string]map[string]bool{}
	var uploads [][]byte
	probe := newCoordinator(nil)
	for {
		var lease shard.LeaseResponse
		rec := httptest.NewRecorder()
		probe.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", bytes.NewReader([]byte(`{"worker":"probe"}`))))
		if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil {
			f.Fatal(err)
		}
		if lease.Status != shard.StatusLease {
			break
		}
		groups[lease.GroupID] = map[string]bool{}
		for _, s := range lease.Specs {
			groups[lease.GroupID][s.ID()] = true
		}
		rows, err := (&scenario.Runner{}).Run(context.Background(), lease.Specs)
		if err != nil {
			f.Fatal(err)
		}
		own, _ := json.Marshal(shard.CompleteRequest{LeaseID: lease.LeaseID, GroupID: lease.GroupID, Worker: "w", Rows: rows})
		uploads = append(uploads, own)
		// The same rows named as another group must merge nothing.
		for _, other := range []string{"g000", "g001"} {
			if other != lease.GroupID {
				wrong, _ := json.Marshal(shard.CompleteRequest{LeaseID: lease.LeaseID, GroupID: other, Worker: "w", Rows: rows})
				uploads = append(uploads, wrong)
			}
		}
	}
	if len(groups) < 2 {
		f.Fatalf("want at least two groups, got %d", len(groups))
	}
	for _, mode := range []uint8{plainBody, gzipBody, fakeGzip} {
		f.Add(uint8(0), mode, []byte(`{"worker":"w"}`))
		f.Add(uint8(0), mode, []byte(`{"nosuchfield":1}`))
		f.Add(uint8(1), mode, []byte(`{"leaseId":"g000.l1","groupId":"nosuch","worker":"w"}`))
		f.Add(uint8(1), mode, []byte(`{"groupId":"g000","rows":[{}]}`))
		f.Add(uint8(2), mode, []byte(`{"leaseId":"g000.l1","worker":"w"}`))
		f.Add(uint8(2), mode, []byte(`{`))
		for _, u := range uploads {
			f.Add(uint8(1), mode, u)
		}
	}

	f.Fuzz(func(t *testing.T, endpoint, mode uint8, body []byte) {
		path := fuzzPaths[int(endpoint)%len(fuzzPaths)]
		mode %= bodyModes
		sink := &recordSink{}
		coord := newCoordinator(sink)
		payload := body
		if mode == gzipBody {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body)
			zw.Close()
			payload = buf.Bytes()
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		if mode != plainBody {
			req.Header.Set("Content-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)

		complete, ok := decodes(path, payload, mode != plainBody)
		switch {
		case !ok:
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("%s: undecodable body answered %d, want a 4xx", path, rec.Code)
			}
		case path == "/v1/complete" && groups[complete.GroupID] == nil:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("upload naming unknown group %q answered %d, want 400", complete.GroupID, rec.Code)
			}
		default:
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: well-formed body answered %d: %s", path, rec.Code, rec.Body)
			}
		}
		for _, row := range sink.rows {
			if !ok || !groups[complete.GroupID][row.Spec.ID()] {
				t.Fatalf("merged row %s outside group %q", row.Spec.ID(), complete.GroupID)
			}
		}
		if st := coord.Status(); st.Rows > st.Specs {
			t.Fatalf("status counts %d rows for %d specs", st.Rows, st.Specs)
		}
	})
}
