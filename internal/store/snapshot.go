package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// snapshotFile is the on-disk snapshot payload: the full event history up
// to Seq, serialized as a single checksummed line so recovery decodes one
// blob instead of scanning the whole job's worth of log lines.
type snapshotFile struct {
	Seq    int64   `json:"seq"`
	Events []Event `json:"events"`
}

// WriteSnapshot atomically writes the event history to path: the payload
// goes to a temp file in the same directory, is fsynced, and is renamed
// over path, so a crash mid-snapshot leaves either the old snapshot or the
// new one, never a torn mix.
func WriteSnapshot(path string, events []Event) error {
	var seq int64
	if n := len(events); n > 0 {
		seq = events[n-1].Seq
	}
	b, err := json.Marshal(snapshotFile{Seq: seq, Events: events})
	if err != nil {
		return &WriteError{Op: "marshal", Path: path, Err: err}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return &WriteError{Op: "append", Path: path, Err: err}
	}
	tmpName := tmp.Name()
	cleanup := func(op string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return &WriteError{Op: op, Path: path, Err: err}
	}
	if _, err := tmp.Write(frameLine(b)); err != nil {
		return cleanup("append", err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup("sync", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return &WriteError{Op: "rename", Path: path, Err: err}
	}
	return nil
}

// ReadSnapshot loads and validates a snapshot written by WriteSnapshot.
// A missing file returns os.ErrNotExist (callers treat it as "no snapshot
// yet"); any damage is an error — snapshots are written atomically, so
// unlike the live log there is no torn tail to tolerate.
func ReadSnapshot(path string) ([]Event, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	line := bytes.TrimRight(raw, "\n")
	body, want, framed := splitFrame(line)
	if framed {
		if got := checksum(body); got != want {
			return nil, fmt.Errorf("store: snapshot %s: checksum mismatch: record %08x, computed %08x", path, want, got)
		}
	}
	var sf snapshotFile
	if err := json.Unmarshal(body, &sf); err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	for i, e := range sf.Events {
		if i > 0 && e.Seq != sf.Events[i-1].Seq+1 {
			return nil, fmt.Errorf("store: snapshot %s: sequence %d after %d", path, e.Seq, sf.Events[i-1].Seq)
		}
	}
	if n := len(sf.Events); n > 0 && sf.Events[n-1].Seq != sf.Seq {
		return nil, fmt.Errorf("store: snapshot %s: header seq %d, last event %d", path, sf.Seq, sf.Events[n-1].Seq)
	}
	return sf.Events, nil
}
