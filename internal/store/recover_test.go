package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/task"
)

// writeFramedLog writes n assign/submit pairs through a real Log and
// returns the file path and the appended events.
func writeFramedLog(t *testing.T, n int) (string, []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := AppendAssign(l, "w", i); err != nil {
			t.Fatal(err)
		}
		if err := AppendSubmit(l, "w", i, task.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, readClean(t, path)
}

func TestRecoverTruncatedFinalLine(t *testing.T) {
	path, events := writeFramedLog(t, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its last 7 bytes (newline included).
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	got, tail, err := readTolerant(bytes.NewReader(raw[:len(raw)-7]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events)-1 {
		t.Fatalf("recovered %d events, want %d", len(got), len(events)-1)
	}
	if tail == nil {
		t.Fatal("torn final line must be reported")
	}
	if tail.Line != 6 || tail.TrailingLines != 1 {
		t.Fatalf("tail = %+v", tail)
	}

	// Open repairs the tear: the file is truncated to the valid prefix,
	// the torn bytes are preserved, and appends continue the sequence.
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tail == nil || len(info.Events) != 5 {
		t.Fatalf("open info = %+v", info)
	}
	if err := AppendInactive(l, "w"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fixed := readClean(t, path)
	if len(fixed) != 6 || fixed[5].Kind != EventInactive || fixed[5].Seq != 6 {
		t.Fatalf("after repair+append: %+v", fixed)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("torn bytes not preserved: %v", err)
	}
}

func TestRecoverCorruptMiddleRecord(t *testing.T) {
	path, _ := writeFramedLog(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) != 8 {
		t.Fatalf("expected 8 lines, got %d", len(lines))
	}
	// Flip a payload byte inside line 4 (a worker name character) so the
	// JSON still parses but the CRC catches the damage.
	bad := bytes.Replace(lines[3], []byte(`"worker":"w"`), []byte(`"worker":"x"`), 1)
	if bytes.Equal(bad, lines[3]) {
		t.Fatal("corruption did not apply")
	}
	lines[3] = bad
	corrupt := append(bytes.Join(lines, []byte("\n")), '\n')

	events, tail, err := readTolerant(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("prefix length %d, want 3", len(events))
	}
	if tail == nil {
		t.Fatal("corrupt middle record must be reported")
	}
	if tail.Line != 4 {
		t.Fatalf("tail line %d, want 4", tail.Line)
	}
	if tail.TrailingLines != 5 {
		t.Fatalf("trailing lines %d, want 5 (bad record + 4 after)", tail.TrailingLines)
	}
	if !strings.Contains(tail.Reason, "checksum mismatch") {
		t.Fatalf("reason %q should name the checksum", tail.Reason)
	}

	// Open recovers the prefix, preserves the dropped suffix, and repairs.
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	info := reopen(t, path)
	if len(info.Events) != 3 || info.Tail == nil {
		t.Fatalf("open info = %+v", info)
	}
	saved, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(saved, []byte(`"worker":"x"`)) {
		t.Fatal("preserved .corrupt file missing the damaged record")
	}
}

func TestRecoveryFromRepairedPrefixReplays(t *testing.T) {
	// End-to-end: drive a strategy while logging, tear the log, and check
	// the recovered prefix replays cleanly into a fresh strategy.
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	for i := 0; i < 6; i++ {
		tid, ok := orig.RequestTask("a")
		if !ok {
			break
		}
		_ = AppendAssign(l, "a", tid)
		_ = orig.SubmitAnswer("a", tid, task.Yes)
		_ = AppendSubmit(l, "a", tid, task.Yes)
	}
	_ = l.Close()
	raw, _ := os.ReadFile(path)
	_ = os.WriteFile(path, raw[:len(raw)-11], 0o644)

	info := reopen(t, path)
	if info.Tail == nil {
		t.Fatal("tear must be diagnosed")
	}
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	if err := Replay(info.Events, fresh); err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
}

func TestAppendWriteError(t *testing.T) {
	b, _, err := Open(filepath.Join(t.TempDir(), "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	l := b.(*Log)
	l.w = &faultyWriter{w: l.f, fails: 1}
	err = AppendAssign(l, "w", 1)
	if err == nil {
		t.Fatal("expected write error")
	}
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want *WriteError, got %T: %v", err, err)
	}
	if we.Op != "append" || !errors.Is(err, errDiskGone) {
		t.Fatalf("WriteError = %+v", we)
	}
}

// TestFailedAppendLeavesLogIntact pins the Backend contract that a failed
// Append leaves the store as it was: a short write must not leave half a
// record for the next acknowledged append to land behind, where reopening
// would drop it and everything after it as a damaged tail. The snapshot
// case fails right after a compaction, when the log's end has moved back
// to zero.
func TestFailedAppendLeavesLogIntact(t *testing.T) {
	cases := []struct {
		name   string
		opts   []Option
		before int // acknowledged appends before the failing one
	}{
		{"log", nil, 1},
		{"snapshot", []Option{WithSnapshotEvery(4)}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "events.log")
			b, _, err := Open(path, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			l := b.(*Log)
			for i := 0; i < c.before; i++ {
				if err := AppendAssign(l, "w", i); err != nil {
					t.Fatal(err)
				}
			}
			l.w = &faultyWriter{w: l.f, fails: 1}
			if err := AppendAssign(l, "w", -1); err == nil {
				t.Fatal("half-written append must fail")
			}
			for i := c.before; i < c.before+3; i++ {
				if err := AppendAssign(l, "w", i); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			info := reopen(t, path)
			if info.Tail != nil {
				t.Fatalf("failed append left a damaged tail: %v", info.Tail)
			}
			if len(info.Events) != c.before+3 {
				t.Fatalf("recovered %d events, want the %d acknowledged ones", len(info.Events), c.before+3)
			}
			for i, e := range info.Events {
				if e.Seq != int64(i+1) || e.Task != i {
					t.Fatalf("event %d = %+v", i, e)
				}
			}
		})
	}
}

// faultyWriter writes through to w, except that its first fails writes
// stop halfway through the record and fail, as a filling disk would.
type faultyWriter struct {
	w     io.Writer
	fails int
}

func (f *faultyWriter) Write(b []byte) (int, error) {
	if f.fails > 0 {
		f.fails--
		n, _ := f.w.Write(b[:len(b)/2])
		return n, errDiskGone
	}
	return f.w.Write(b)
}

var errDiskGone = errors.New("disk gone")

func TestLegacyPlainJSONLinesStillRead(t *testing.T) {
	// Logs written before CRC framing (plain JSON lines) must stay
	// replayable, including mixed with framed lines.
	path := filepath.Join(t.TempDir(), "events.log")
	plain := `{"seq":1,"kind":"assign","worker":"w","task":2}` + "\n"
	if err := os.WriteFile(path, []byte(plain), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendSubmit(l, "w", 2, task.No); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events := readClean(t, path)
	if len(events) != 2 || events[0].Task != 2 || events[1].Answer != "NO" || events[1].Seq != 2 {
		t.Fatalf("events = %+v", events)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	snapPath := logPath + ".snap"
	opts := []Option{WithSnapshotEvery(4), WithFsync(2)}
	l, info, err := Open(logPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Events) != 0 {
		t.Fatalf("fresh log has %d events", len(info.Events))
	}
	for i := 0; i < 5; i++ {
		if err := AppendAssign(l, "w", i); err != nil {
			t.Fatal(err)
		}
		if err := AppendSubmit(l, "w", i, task.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.(*Log).snapErr; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// 10 appends with SnapshotEvery=4: two compactions; the live log holds
	// only the 2 post-snapshot events.
	tailEvents, _, err := readTolerant(mustOpen(t, logPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(tailEvents) != 2 || tailEvents[0].Seq != 9 {
		t.Fatalf("compacted log tail = %+v", tailEvents)
	}
	snapEvents, err := ReadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapEvents) != 8 || snapEvents[7].Seq != 8 {
		t.Fatalf("snapshot holds %d events, last seq %d", len(snapEvents), snapEvents[len(snapEvents)-1].Seq)
	}

	// Reopening merges snapshot + tail and continues the sequence.
	l2, info2, err := Open(logPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(info2.Events) != 10 || info2.FromSnapshot != 8 {
		t.Fatalf("reopen info: %d events, %d from snapshot", len(info2.Events), info2.FromSnapshot)
	}
	for i, e := range info2.Events {
		if e.Seq != int64(i+1) {
			t.Fatalf("merged seq %d at index %d", e.Seq, i)
		}
	}
	if err := AppendInactive(l2, "w"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot is read whether or not snapshotting is still enabled.
	info3 := reopen(t, logPath)
	if len(info3.Events) != 11 || info3.Events[10].Seq != 11 || info3.Tail != nil {
		t.Fatalf("after reopen+append: %d events, tail %v", len(info3.Events), info3.Tail)
	}

	// A compacted log opened without its snapshot must refuse, not
	// silently lose the prefix.
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(logPath); err == nil {
		t.Fatal("compacted log without snapshot must refuse to open")
	}
}

func TestSnapshotOverlapAfterCrash(t *testing.T) {
	// Crash between snapshot write and log truncation: the log still
	// holds events the snapshot also has; the merge must dedupe by seq.
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	snapPath := logPath + ".snap"
	l, _, err := Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = AppendAssign(l, "w", i)
		_ = AppendSubmit(l, "w", i, task.No)
	}
	_ = l.Close()
	all := readClean(t, logPath)
	// Snapshot the first 4 events but "crash" before truncating the log.
	if err := WriteSnapshot(snapPath, all[:4]); err != nil {
		t.Fatal(err)
	}
	info := reopen(t, logPath)
	if len(info.Events) != 6 || info.FromSnapshot != 4 {
		t.Fatalf("overlap merge: %d events, %d from snapshot", len(info.Events), info.FromSnapshot)
	}
	for i, e := range info.Events {
		if e.Seq != int64(i+1) {
			t.Fatalf("merged seq %d at index %d", e.Seq, i)
		}
	}
}

func TestReadSnapshotRejectsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteSnapshot(path, []Event{{Seq: 1, Kind: EventInactive, Worker: "w"}}); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	flipped := bytes.Replace(raw, []byte(`"worker":"w"`), []byte(`"worker":"v"`), 1)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("damaged snapshot: %v", err)
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "none.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
