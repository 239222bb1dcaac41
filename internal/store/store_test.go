package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/task"
)

// reopen opens the log at path, closes it again, and returns what Open
// recovered.
func reopen(t *testing.T, path string, opts ...Option) *RecoverInfo {
	t.Helper()
	b, info, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return info
}

// readClean returns the history of a log that must be undamaged: the
// recovered events, failing on any dropped tail.
func readClean(t *testing.T, path string) []Event {
	t.Helper()
	info := reopen(t, path)
	if info.Tail != nil {
		t.Fatalf("log %s has a damaged tail: %v", path, info.Tail)
	}
	return info.Events
}

func TestAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendAssign(l, "w1", 3); err != nil {
		t.Fatal(err)
	}
	if err := AppendSubmit(l, "w1", 3, task.Yes); err != nil {
		t.Fatal(err)
	}
	if err := AppendInactive(l, "w2"); err != nil {
		t.Fatal(err)
	}
	if err := AppendSubmit(l, "w1", 3, task.None); err == nil {
		t.Fatal("None answer should error")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events := readClean(t, path)
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Kind != EventAssign || events[0].Seq != 1 || events[0].Task != 3 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Kind != EventSubmit || events[1].Answer != "YES" {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if events[2].Kind != EventInactive || events[2].Worker != "w2" {
		t.Fatalf("event 2 = %+v", events[2])
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", "{\n"},
		{"bad seq", `{"seq":5,"kind":"submit","worker":"w","task":0,"answer":"YES"}` + "\n"},
		{"bad kind", `{"seq":1,"kind":"bogus","worker":"w"}` + "\n"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "events.log")
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		b, info, err := Open(path)
		if err == nil {
			b.Close()
			if info.Tail == nil {
				t.Fatalf("%s: expected a rejected record", c.name)
			}
		}
	}
	// Blank lines are tolerated.
	path := filepath.Join(t.TempDir(), "events.log")
	in := "\n" + `{"seq":1,"kind":"inactive","worker":"w"}` + "\n\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	if events := readClean(t, path); len(events) != 1 {
		t.Fatalf("blank-line handling: %d events", len(events))
	}
}

func TestOpenAppendsAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = AppendAssign(l, "a", 1)
	_ = AppendSubmit(l, "a", 1, task.No)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: sequence numbers continue.
	l2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = AppendInactive(l2, "a")
	_ = l2.Close()
	events := readClean(t, path)
	if len(events) != 3 || events[2].Seq != 3 {
		t.Fatalf("events = %+v", events)
	}
}

// drive runs a strategy while logging every event, returning the logged
// history.
func drive(t *testing.T, s core.Strategy, ds *task.Dataset, seed int64, steps int) []Event {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.log")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	workers := []string{"a", "b", "c", "d"}
	for i := 0; i < steps && !s.Done(); i++ {
		w := workers[rng.Intn(len(workers))]
		if rng.Float64() < 0.05 {
			s.WorkerInactive(w)
			if err := AppendInactive(l, w); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tid, ok := s.RequestTask(w)
		if !ok {
			continue
		}
		if err := AppendAssign(l, w, tid); err != nil {
			t.Fatal(err)
		}
		ans := ds.Tasks[tid].Truth
		if rng.Float64() < 0.3 {
			ans = ans.Flip()
		}
		if err := s.SubmitAnswer(w, tid, ans); err != nil {
			t.Fatal(err)
		}
		if err := AppendSubmit(l, w, tid, ans); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return readClean(t, path)
}

func TestReplayReconstructsRandomMV(t *testing.T) {
	ds := task.ProductMatching()
	orig, _ := baseline.NewRandomMV(ds, 3, []int{0, 1}, 7)
	events := drive(t, orig, ds, 11, 500)
	fresh, _ := baseline.NewRandomMV(ds, 3, []int{0, 1}, 7)
	if err := Replay(events, fresh); err != nil {
		t.Fatal(err)
	}
	origRes, freshRes := orig.Results(), fresh.Results()
	for i := 0; i < ds.Len(); i++ {
		if origRes[i] != freshRes[i] {
			t.Fatalf("task %d: original %v vs recovered %v", i, origRes[i], freshRes[i])
		}
	}
	if orig.Done() != fresh.Done() {
		t.Fatal("completion state differs after replay")
	}
}

func TestReplayReconstructsICrowd(t *testing.T) {
	ds := task.ProductMatching()
	bc := core.DefaultBasisConfig()
	bc.Threshold = 0.5
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Q = 3
	orig, err := core.New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := drive(t, orig, ds, 13, 800)
	fresh, err := core.New(ds, basis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(events, fresh); err != nil {
		t.Fatal(err)
	}
	// Full state equivalence: results, completion, and accuracy estimates.
	origRes, freshRes := orig.Results(), fresh.Results()
	for i := 0; i < ds.Len(); i++ {
		if origRes[i] != freshRes[i] {
			t.Fatalf("task %d: original %v vs recovered %v", i, origRes[i], freshRes[i])
		}
	}
	for _, w := range orig.Estimator().Workers() {
		for tid := 0; tid < ds.Len(); tid++ {
			a, b := orig.Estimator().Accuracy(w, tid), fresh.Estimator().Accuracy(w, tid)
			if a != b {
				t.Fatalf("estimate for %s on %d differs: %v vs %v", w, tid, a, b)
			}
		}
	}
}

func TestReplayDetectsMismatchedConfig(t *testing.T) {
	ds := task.ProductMatching()
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	events := drive(t, orig, ds, 11, 200)
	// Different seed => different random assignments => mismatch detected.
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 99)
	if err := Replay(events, fresh); err == nil {
		t.Fatal("mismatched configuration should be detected")
	}
}

func TestReplayBadEvents(t *testing.T) {
	ds := task.ProductMatching()
	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	bad := []Event{{Seq: 1, Kind: EventSubmit, Worker: "w", Task: 0, Answer: "MAYBE"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("bad answer should error")
	}
	bad = []Event{{Seq: 1, Kind: "bogus", Worker: "w"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("bad kind should error")
	}
	// Submit without assignment conflicts inside the strategy.
	bad = []Event{{Seq: 1, Kind: EventSubmit, Worker: "w", Task: 0, Answer: "YES"}}
	if err := Replay(bad, fresh); err == nil {
		t.Fatal("submit without pending should error")
	}
}

func TestRecoverFile(t *testing.T) {
	ds := task.ProductMatching()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	tid, ok := orig.RequestTask("a")
	if !ok {
		t.Fatal("no task")
	}
	_ = AppendAssign(l, "a", tid)
	_ = orig.SubmitAnswer("a", tid, task.Yes)
	_ = AppendSubmit(l, "a", tid, task.Yes)
	_ = l.Close()

	fresh, _ := baseline.NewRandomMV(ds, 3, nil, 7)
	if err := Replay(readClean(t, path), fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Job().Votes(tid)) != 1 {
		t.Fatal("recovered state missing the vote")
	}
}

func TestHealthyTracksStickyWriteError(t *testing.T) {
	b, _, err := Open(filepath.Join(t.TempDir(), "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	l := b.(*Log)
	l.w = &faultyWriter{w: l.f, fails: 1}
	if err := l.Healthy(); err != nil {
		t.Fatalf("fresh log should be healthy, got %v", err)
	}
	if err := AppendAssign(l, "w1", 1); err == nil {
		t.Fatal("append through failing writer should error")
	}
	if err := l.Healthy(); err == nil {
		t.Fatal("Healthy should report the failed append until one succeeds")
	}
	// Writer healed: the next successful append clears the sticky error.
	if err := AppendAssign(l, "w1", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("Healthy after successful append = %v, want nil", err)
	}
}
