package scenario

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Manifest is the resumable-checkpoint sink: it journals every completed
// Result as one JSON line to an append-only file, and on open replays the
// journal so Runner.Resume can skip the specs a killed sweep already
// finished. The file format is exactly the JSONL sink's — a checkpoint is a
// valid (unordered) suite output in its own right.
//
// A process killed mid-write may leave a truncated final line; OpenManifest
// detects it and truncates the file back to the last complete row, so the
// journal stays appendable across any number of kills.
type Manifest struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	done map[string]Result // completed rows by Spec ID, first write wins
}

// OpenManifest opens (creating if needed) the checkpoint at path, replays
// its completed rows, and positions it for appending.
func OpenManifest(path string) (*Manifest, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scenario: open manifest: %w", err)
	}
	m := &Manifest{f: f, enc: json.NewEncoder(f), done: map[string]Result{}}
	if err := m.load(); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// load replays the journal, recording each decodable row and truncating the
// file after the last complete line (dropping a torn tail from a mid-write
// kill).
func (m *Manifest) load() error {
	if _, err := m.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	r := bufio.NewReader(m.f)
	var good int64
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			var res Result
			if jsonErr := json.Unmarshal(line, &res); jsonErr != nil {
				// A corrupt interior line means the file is not our journal;
				// refuse rather than silently rerun or overwrite.
				return fmt.Errorf("scenario: manifest has a corrupt row at byte %d: %w", good, jsonErr)
			}
			id := res.Spec.ID()
			if _, dup := m.done[id]; !dup {
				m.done[id] = res
			}
			good += int64(len(line))
			continue
		}
		if err == io.EOF {
			// Anything after the last newline is a torn tail; len(line) may
			// be 0 (clean EOF) or a partial row to drop.
			break
		}
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	if err := m.f.Truncate(good); err != nil {
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	if _, err := m.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	return nil
}

// Write implements Sink: it journals the row and records its Spec ID as
// completed. A row whose spec is already journaled is dropped (the journal
// keeps the first outcome), so replays cannot duplicate lines.
func (m *Manifest) Write(res Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := res.Spec.ID()
	if _, ok := m.done[id]; ok {
		return nil
	}
	if err := m.enc.Encode(res); err != nil {
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	m.done[id] = res
	return nil
}

// Done reports whether a spec with the given ID has a journaled row.
func (m *Manifest) Done(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.done[id]
	return ok
}

// Row returns the journaled row for the given Spec ID, if any.
func (m *Manifest) Row(id string) (Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.done[id]
	return res, ok
}

// Len counts the journaled rows.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// Results returns every journaled row sorted by Spec ID (the
// order-normalised form).
func (m *Manifest) Results() []Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Result, 0, len(m.done))
	for _, res := range m.done {
		out = append(out, res)
	}
	sortByID(out)
	return out
}

// Close syncs and closes the journal file.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.f.Sync(); err != nil {
		m.f.Close()
		return fmt.Errorf("scenario: manifest: %w", err)
	}
	return m.f.Close()
}

// Resume executes the suite like Run, dropping repeated specs (Distinct),
// but against a checkpoint: specs whose rows the manifest already journals
// are skipped (their prior rows are replayed into r.Sink and merged into
// the returned results), and every newly completed row is journaled to the
// manifest as well as r.Sink. A
// sweep killed partway and resumed this way replays only the remainder, and
// — because every row is a deterministic function of its Spec — the merged,
// order-normalised results are identical to an uninterrupted run's (up to
// WallMicros/Attempts). A nil manifest degrades to plain Run.
func (r *Runner) Resume(ctx context.Context, m *Manifest, specs []Spec) ([]Result, error) {
	if m == nil {
		return r.Run(ctx, specs)
	}
	merged := make([]Result, 0, len(specs))
	var todo []Spec
	for _, s := range Distinct(specs) {
		if row, ok := m.Row(s.ID()); ok {
			merged = append(merged, row)
			if r.Sink != nil {
				if err := r.Sink.Write(row); err != nil {
					sortByID(merged)
					return merged, fmt.Errorf("scenario: sink: %w", err)
				}
			}
			continue
		}
		todo = append(todo, s)
	}
	sub := *r
	sub.Sink = MultiSink{m, r.Sink}
	results, err := sub.Run(ctx, todo)
	merged = append(merged, results...)
	sortByID(merged)
	return merged, err
}
