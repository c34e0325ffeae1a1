package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"amnesiacflood/internal/shard"
)

// stagedTransport lets a test order two shard workers' requests: it reports
// the status of every lease answer on leased, and holds every upload until
// hold is closed (a nil hold holds nothing).
type stagedTransport struct {
	base   http.RoundTripper
	leased chan string
	hold   chan struct{}
}

func (s *stagedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.hold != nil && strings.HasSuffix(req.URL.Path, "/v1/complete") {
		<-s.hold
	}
	resp, err := s.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/v1/lease") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lease shard.LeaseResponse
	if json.Unmarshal(body, &lease) == nil {
		select {
		case s.leased <- lease.Status:
		default:
		}
	}
	return resp, nil
}

// TestShardWorkersExitWhenTheSuiteMerges: once a suite merges, both of its
// external workers return nil promptly, the one that uploaded the last group
// and the one sleeping on a wait answer, because the coordinator keeps
// serving until each has polled once more and heard the suite is done. A
// coordinator that closed its listener as soon as the last row merged left
// the sleeping worker polling a closed port until it gave up with
// "coordinator unreachable".
func TestShardWorkersExitWhenTheSuiteMerges(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	suite := make(chan error, 1)
	go func() {
		// -lease 2s makes the coordinator's wait answer 500 ms.
		suite <- run([]string{"-suite", "-graphs", "cycle:n=9", "-shard-coordinator", addr,
			"-lease", "2s", "-format", "jsonl", "-out", filepath.Join(t.TempDir(), "suite.jsonl")})
	}()
	base := "http://" + addr
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i == 500 {
			t.Fatalf("coordinator did not come up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := func(name string, tr *stagedTransport) <-chan error {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Coordinator:  base,
			Name:         name,
			Pool:         1,
			Client:       &http.Client{Transport: tr, Timeout: 10 * time.Second},
			PollInterval: 20 * time.Millisecond,
			MaxErrors:    3,
			Logger:       slog.New(slog.DiscardHandler),
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- w.Run(context.Background()) }()
		return done
	}
	release := make(chan struct{})
	uploader := &stagedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), leased: make(chan string, 64), hold: release}
	idle := &stagedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), leased: make(chan string, 64)}
	uploaderDone := start("uploader", uploader)
	if st := <-uploader.leased; st != shard.StatusLease {
		t.Fatalf("the first worker was answered %q, want a lease on the only group", st)
	}
	idleDone := start("idle", idle)
	if st := <-idle.leased; st != shard.StatusWait {
		t.Fatalf("the second worker was answered %q, want %q", st, shard.StatusWait)
	}
	// The only group uploads and merges while the idle worker sleeps on its
	// 500 ms wait answer.
	merged := time.Now()
	close(release)
	for name, done := range map[string]<-chan error{"uploader": uploaderDone, "idle": idleDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s worker: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s worker still running 10 s after the suite merged", name)
		}
	}
	// One wait answer (500 ms) plus one poll, with room for a loaded machine.
	if took := time.Since(merged); took > 1500*time.Millisecond {
		t.Errorf("workers took %v to hear the suite was done, want under 1.5 s", took)
	}
	select {
	case err := <-suite:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("afbench still running 10 s after both workers returned")
	}
}
