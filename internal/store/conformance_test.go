package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The backend conformance suite: a Backend must satisfy the contracts
// documented on the interface. Each TestConformance* test runs against
// every registered factory, so a new backend adds one factory here and
// inherits the whole suite.

// backendFactory opens a backend of one kind inside dir.
type backendFactory struct {
	name string
	// open opens (or reopens) the backend rooted in dir with extra options.
	open func(t *testing.T, dir string, opts ...Option) (Backend, *RecoverInfo)
	// tailFile returns the file whose tail is the crash-append surface.
	tailFile func(dir string) string
}

func conformanceFactories() []backendFactory {
	return []backendFactory{
		{
			name: "log",
			open: func(t *testing.T, dir string, opts ...Option) (Backend, *RecoverInfo) {
				t.Helper()
				b, info, err := Open(filepath.Join(dir, "events.log"), opts...)
				if err != nil {
					t.Fatalf("open log backend: %v", err)
				}
				return b, info
			},
			tailFile: func(dir string) string { return filepath.Join(dir, "events.log") },
		},
	}
}

// driveWorkload appends a deterministic mixed workload of n events and
// returns them as the backend stamped them.
func driveWorkload(t *testing.T, b Backend, n int) []Event {
	t.Helper()
	var out []Event
	for i := 0; i < n; i++ {
		e := Event{Kind: EventInactive, Worker: fmt.Sprintf("w%d", i%5)}
		switch i % 3 {
		case 0:
			e.Kind, e.Task = EventAssign, i%7
		case 1:
			e.Kind, e.Task, e.Answer = EventSubmit, i%7, "YES"
			if i%2 == 0 {
				e.Answer = "NO"
			}
		}
		got, err := b.Append(e)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, got)
	}
	return out
}

// TestConformanceAppendReplayParity drives a workload into every backend
// and demands the acknowledged history back, bit-identical, across a clean
// reopen.
func TestConformanceAppendReplayParity(t *testing.T) {
	const n = 50
	for _, f := range conformanceFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			b, info := f.open(t, dir)
			if info == nil || len(info.Events) != 0 {
				t.Fatalf("fresh open recovered %v", info)
			}
			live := driveWorkload(t, b, n)
			for i, e := range live {
				if e.Seq != int64(i+1) {
					t.Fatalf("event %d has seq %d, want contiguous from 1", i, e.Seq)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatalf("Close must be idempotent, got %v", err)
			}
			b2, info2 := f.open(t, dir)
			defer b2.Close()
			if info2.Tail != nil {
				t.Fatalf("clean reopen reported a damaged tail: %v", info2.Tail)
			}
			if !reflect.DeepEqual(info2.Events, live) {
				t.Fatal("recovered history differs from the acknowledged history")
			}
		})
	}
}

// TestConformanceTornTailRecovery simulates a crash mid-append: garbage at
// the end of the newest file is truncated away, the valid prefix survives,
// appends continue with the right sequence numbers, and the next reopen is
// clean.
func TestConformanceTornTailRecovery(t *testing.T) {
	const n = 20
	for _, f := range conformanceFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			b, _ := f.open(t, dir)
			driveWorkload(t, b, n)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			// Crash mid-append: a partial frame lands at the tail.
			fh, err := os.OpenFile(f.tailFile(dir), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteString(`1234abcd {"seq":999,"kind":"assi`); err != nil {
				t.Fatal(err)
			}
			fh.Close()

			b2, info := f.open(t, dir)
			if info.Tail == nil {
				t.Fatal("reopen after torn append reported no Tail")
			}
			if len(info.Events) != n {
				t.Fatalf("recovered %d events, want the %d-event valid prefix", len(info.Events), n)
			}
			// Appends continue with contiguous sequence numbers.
			if err := AppendAssign(b2, "post-crash", 1); err != nil {
				t.Fatal(err)
			}
			if got := b2.LastSeq(); got != n+1 {
				t.Fatalf("LastSeq after repair+append = %d, want %d", got, n+1)
			}
			if err := b2.Close(); err != nil {
				t.Fatal(err)
			}
			// The repair is durable: the next open is clean.
			b3, info3 := f.open(t, dir)
			defer b3.Close()
			if info3.Tail != nil {
				t.Fatalf("second reopen still reports a torn tail: %v", info3.Tail)
			}
			if len(info3.Events) != n+1 {
				t.Fatalf("second reopen recovered %d events, want %d", len(info3.Events), n+1)
			}
		})
	}
}

// TestConformanceSnapshotRoundTrip enables snapshotting, crosses the
// compaction threshold, and demands the full history back after reopen.
func TestConformanceSnapshotRoundTrip(t *testing.T) {
	const n = 45 // crosses several 16-append snapshot intervals
	for _, f := range conformanceFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			b, _ := f.open(t, dir, WithSnapshotEvery(16))
			live := driveWorkload(t, b, n)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2, info := f.open(t, dir, WithSnapshotEvery(16))
			defer b2.Close()
			if info.FromSnapshot == 0 {
				t.Fatal("no events recovered from the snapshot despite crossing the interval")
			}
			if !reflect.DeepEqual(info.Events, live) {
				t.Fatalf("snapshot round-trip lost history: recovered %d events, want %d",
					len(info.Events), len(live))
			}
			if got := b2.LastSeq(); got != n {
				t.Fatalf("LastSeq after snapshot round-trip = %d, want %d", got, n)
			}
		})
	}
}

// TestConformanceLastSeqAndHealth pins LastSeq across a reopen and the
// Healthy contract on a fresh store.
func TestConformanceLastSeqAndHealth(t *testing.T) {
	for _, f := range conformanceFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			b, _ := f.open(t, dir)
			if got := b.LastSeq(); got != 0 {
				t.Fatalf("LastSeq on empty store = %d, want 0", got)
			}
			if err := b.Healthy(); err != nil {
				t.Fatalf("fresh store unhealthy: %v", err)
			}
			driveWorkload(t, b, 10)
			if got := b.LastSeq(); got != 10 {
				t.Fatalf("LastSeq = %d, want 10", got)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2, _ := f.open(t, dir)
			defer b2.Close()
			if got := b2.LastSeq(); got != 10 {
				t.Fatalf("LastSeq after reopen = %d, want 10", got)
			}
		})
	}
}
