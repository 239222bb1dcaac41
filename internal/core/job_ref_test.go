package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"icrowd/internal/aggregate"
	"icrowd/internal/task"
)

// TestJobParityWithReference runs random sequences of Assign, AssignTest,
// Submit, Release and ForceComplete against Job and the map-backed refJob
// it replaced, and requires identical behaviour: every returned value and
// error, and after every operation every query on the operation's worker
// and task, on a random other worker and task, and on the whole job. Every
// 250 operations Touched, Capacity and the pending queries are compared for
// all workers on all tasks.
//
// The crowd is the served size (200 workers on ItemCompare's 360 tasks).
// Operations mostly follow the protocol — assign an open task, submit the
// held one — and otherwise probe its edges: out-of-range task IDs, tasks
// the worker touched or does not hold, invalid answers, test assignments on
// completed tasks, and forced completions of tasks with holders, whose
// later submissions are late votes.
func TestJobParityWithReference(t *testing.T) {
	ds := task.GenerateItemCompare(1)
	workers := parityWorkers(200)
	for _, k := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			runJobParity(t, ds, workers, k, 3000, rand.New(rand.NewSource(int64(k))))
		})
	}
}

func runJobParity(t *testing.T, ds *task.Dataset, workers []string, k, ops int, rng *rand.Rand) {
	j, err := NewJob(ds, k)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefJob(ds, k)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Len()
	anyTask := func() int { return rng.Intn(n+6) - 3 } // a few out of range
	anyAnswer := func() task.Answer {
		if rng.Intn(100) == 0 {
			return task.None
		}
		return task.Answer(rng.Intn(2))
	}
	busy := func() (string, int, bool) {
		var ws []string
		for w := range ref.pendingW {
			ws = append(ws, w)
		}
		for w := range ref.pendingTestW {
			ws = append(ws, w)
		}
		if len(ws) == 0 {
			return "", 0, false
		}
		sort.Strings(ws)
		w := ws[rng.Intn(len(ws))]
		tid, _ := ref.Pending(w)
		return w, tid, true
	}
	sameErr := func(op string, got, want error) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) ||
			errors.Is(got, ErrBusy) != errors.Is(want, ErrBusy) ||
			errors.Is(got, ErrNoPending) != errors.Is(want, ErrNoPending) {
			t.Fatalf("%s: error %v, reference %v", op, got, want)
		}
	}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %#v, reference %#v", what, got, want)
		}
	}
	// The per-pair and per-task checks run millions of times, so they
	// compare directly and format only on a mismatch.
	checkPair := func(w string, tid int) {
		if g, r := j.Touched(w, tid), ref.Touched(w, tid); g != r {
			t.Fatalf("Touched(%s, %d) = %v, reference %v", w, tid, g, r)
		}
		if g, r := j.PendingTest(w, tid), ref.PendingTest(w, tid); g != r {
			t.Fatalf("PendingTest(%s, %d) = %v, reference %v", w, tid, g, r)
		}
	}
	checkWorker := func(w string) {
		gt, gok := j.Pending(w)
		rt, rok := ref.Pending(w)
		if gok != rok || (gok && gt != rt) {
			t.Fatalf("Pending(%s) = (%d, %v), reference (%d, %v)", w, gt, gok, rt, rok)
		}
	}
	checkTask := func(tid int) {
		if g, r := j.Capacity(tid), ref.Capacity(tid); g != r {
			t.Fatalf("Capacity(%d) = %d, reference %d", tid, g, r)
		}
		if g, r := j.PendingWorkers(tid), ref.PendingWorkers(tid); !slices.Equal(g, r) || (g == nil) != (r == nil) {
			t.Fatalf("PendingWorkers(%d) = %#v, reference %#v", tid, g, r)
		}
		ga, gok := j.Completed(tid)
		ra, rok := ref.Completed(tid)
		if ga != ra || gok != rok {
			t.Fatalf("Completed(%d) = (%v, %v), reference (%v, %v)", tid, ga, gok, ra, rok)
		}
		if g, r := j.Votes(tid), ref.Votes(tid); !slices.Equal(g, r) || (g == nil) != (r == nil) {
			t.Fatalf("Votes(%d) = %v, reference %v", tid, g, r)
		}
	}
	checkJob := func() {
		t.Helper()
		same("Uncompleted", j.Uncompleted(), ref.Uncompleted())
		same("NumCompleted", j.NumCompleted(), ref.NumCompleted())
		same("Done", j.Done(), ref.Done())
		if g, r := j.MajorityResults(), ref.MajorityResults(); !maps.Equal(g, r) {
			t.Fatalf("MajorityResults = %v, reference %v", g, r)
		}
		if g, r := j.AllVotes(), ref.AllVotes(); !maps.EqualFunc(g, r, slices.Equal) {
			t.Fatalf("AllVotes = %v, reference %v", g, r)
		}
	}

	lateVotes := 0
	for op := 0; op < ops; op++ {
		w := workers[rng.Intn(len(workers))]
		var tid int
		var name string
		switch r := rng.Intn(100); {
		case r < 35: // regular assignment, mostly on an open task
			tid = anyTask()
			if open := ref.Uncompleted(); len(open) > 0 && rng.Intn(5) > 0 {
				tid = open[rng.Intn(len(open))]
			}
			name = fmt.Sprintf("op %d: Assign(%s, %d)", op, w, tid)
			sameErr(name, j.Assign(w, tid), ref.Assign(w, tid))
		case r < 45: // test assignment, mostly on a completed task
			tid = anyTask()
			if rng.Intn(4) > 0 {
				for try := 0; try < 20; try++ {
					if c := rng.Intn(n); func() bool { _, ok := ref.Completed(c); return ok }() {
						tid = c
						break
					}
				}
			}
			name = fmt.Sprintf("op %d: AssignTest(%s, %d)", op, w, tid)
			sameErr(name, j.AssignTest(w, tid), ref.AssignTest(w, tid))
		case r < 85: // submission, mostly of the held task
			tid = anyTask()
			if bw, bt, ok := busy(); ok && rng.Intn(10) > 0 {
				w, tid = bw, bt
			}
			ans := anyAnswer()
			_, wasDone := ref.Completed(tid)
			wasRegular := !ref.PendingTest(w, tid)
			name = fmt.Sprintf("op %d: Submit(%s, %d, %v)", op, w, tid, ans)
			gNow, gAns, gErr := j.Submit(w, tid, ans)
			rNow, rAns, rErr := ref.Submit(w, tid, ans)
			sameErr(name, gErr, rErr)
			same(name, [2]any{gNow, gAns}, [2]any{rNow, rAns})
			if rErr == nil && wasDone && wasRegular {
				lateVotes++
			}
		case r < 94: // release, mostly of a busy worker
			if bw, bt, ok := busy(); ok && rng.Intn(4) > 0 {
				w, tid = bw, bt
			}
			name = fmt.Sprintf("op %d: Release(%s)", op, w)
			j.Release(w)
			ref.Release(w)
		default: // forced completion, possibly of a held task
			tid = anyTask()
			ans := task.Answer(rng.Intn(2))
			name = fmt.Sprintf("op %d: ForceComplete(%d, %v)", op, tid, ans)
			j.ForceComplete(tid, ans)
			ref.ForceComplete(tid, ans)
		}
		w2, t2 := workers[rng.Intn(len(workers))], anyTask()
		for _, ww := range []string{w, w2} {
			checkWorker(ww)
			for _, tt := range []int{tid, t2} {
				checkPair(ww, tt)
			}
		}
		checkTask(tid)
		checkTask(t2)
		checkJob()
		if op%250 == 249 {
			for _, ww := range workers {
				checkWorker(ww)
				for tt := -1; tt <= n; tt++ {
					checkPair(ww, tt)
				}
			}
			for tt := -1; tt <= n; tt++ {
				checkTask(tt)
			}
		}
		if t.Failed() {
			t.Fatalf("after %s", name)
		}
	}
	t.Logf("%d operations: %d completed tasks, %d late votes", ops, ref.NumCompleted(), lateVotes)
	if ref.NumCompleted() == 0 || lateVotes == 0 {
		t.Fatalf("sequence too tame: %d completed tasks, %d late votes", ref.NumCompleted(), lateVotes)
	}
}

// refJob is the map-backed Job the dense one replaced, kept verbatim as the
// oracle TestJobParityWithReference checks Job against.
type refJob struct {
	ds   *task.Dataset
	k    int
	need int // votes on one side required for consensus

	votes     map[int][]aggregate.Vote
	voted     map[int]map[string]bool
	pendingW  map[string]int          // worker -> task they hold
	pendingT  map[int]map[string]bool // task -> workers holding it
	completed map[int]task.Answer

	// Test assignments (Section 4.1 Step 3 / Section 5): answers collected
	// purely to estimate a worker's accuracy. They never count toward the
	// k-vote consensus, honoring the Step-2 constraint that a microtask is
	// assigned to at most its available assignment size.
	pendingTestW map[string]int
	testVoted    map[int]map[string]bool
}

func newRefJob(ds *task.Dataset, k int) (*refJob, error) {
	if k < 1 {
		return nil, errors.New("core: assignment size must be >= 1")
	}
	return &refJob{
		ds:           ds,
		k:            k,
		need:         k/2 + 1,
		votes:        map[int][]aggregate.Vote{},
		voted:        map[int]map[string]bool{},
		pendingW:     map[string]int{},
		pendingT:     map[int]map[string]bool{},
		completed:    map[int]task.Answer{},
		pendingTestW: map[string]int{},
		testVoted:    map[int]map[string]bool{},
	}, nil
}

// Dataset returns the job's dataset.
func (j *refJob) Dataset() *task.Dataset { return j.ds }

// K returns the assignment size.
func (j *refJob) K() int { return j.k }

// Capacity returns the number of additional workers taskID can take:
// k minus collected votes minus outstanding assignments. Completed tasks
// have zero capacity.
func (j *refJob) Capacity(taskID int) int {
	if _, done := j.completed[taskID]; done {
		return 0
	}
	c := j.k - len(j.votes[taskID]) - len(j.pendingT[taskID])
	if c < 0 {
		c = 0
	}
	return c
}

// Touched reports whether the worker has voted on, test-answered, or
// currently holds taskID (i.e. is in the paper's W^d(t), extended with test
// exposure so no worker ever sees the same microtask twice).
func (j *refJob) Touched(worker string, taskID int) bool {
	if j.voted[taskID][worker] || j.testVoted[taskID][worker] {
		return true
	}
	if t, ok := j.pendingTestW[worker]; ok && t == taskID {
		return true
	}
	return j.pendingT[taskID][worker]
}

// Pending returns the task the worker currently holds (regular or test).
func (j *refJob) Pending(worker string) (int, bool) {
	if t, ok := j.pendingW[worker]; ok {
		return t, ok
	}
	t, ok := j.pendingTestW[worker]
	return t, ok
}

// PendingTest reports whether the worker's pending assignment on taskID is
// a test assignment.
func (j *refJob) PendingTest(worker string, taskID int) bool {
	t, ok := j.pendingTestW[worker]
	return ok && t == taskID
}

// PendingWorkers returns the workers currently holding taskID, sorted.
func (j *refJob) PendingWorkers(taskID int) []string {
	out := make([]string, 0, len(j.pendingT[taskID]))
	for w := range j.pendingT[taskID] {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Assign hands taskID to the worker as a regular (consensus-counting)
// assignment. It enforces the one-task-at-a-time rule and the no-repeat
// rule; completed tasks cannot take regular assignments.
func (j *refJob) Assign(worker string, taskID int) error {
	if taskID < 0 || taskID >= j.ds.Len() {
		return fmt.Errorf("core: task %d out of range", taskID)
	}
	if j.busy(worker) {
		return ErrBusy
	}
	if j.Touched(worker, taskID) {
		return fmt.Errorf("core: worker %s already touched task %d", worker, taskID)
	}
	if _, done := j.completed[taskID]; done {
		return fmt.Errorf("core: task %d already completed", taskID)
	}
	j.pendingW[worker] = taskID
	set, ok := j.pendingT[taskID]
	if !ok {
		set = map[string]bool{}
		j.pendingT[taskID] = set
	}
	set[worker] = true
	return nil
}

// AssignTest hands taskID to the worker as a test assignment: the answer is
// used only for accuracy estimation and never counts toward consensus.
// Unlike Assign, completed tasks are allowed (they are the preferred test
// targets — their consensus grades the answer immediately).
func (j *refJob) AssignTest(worker string, taskID int) error {
	if taskID < 0 || taskID >= j.ds.Len() {
		return fmt.Errorf("core: task %d out of range", taskID)
	}
	if j.busy(worker) {
		return ErrBusy
	}
	if j.Touched(worker, taskID) {
		return fmt.Errorf("core: worker %s already touched task %d", worker, taskID)
	}
	j.pendingTestW[worker] = taskID
	return nil
}

func (j *refJob) busy(worker string) bool {
	if _, ok := j.pendingW[worker]; ok {
		return true
	}
	_, ok := j.pendingTestW[worker]
	return ok
}

// Release drops the worker's pending assignment (worker became inactive).
func (j *refJob) Release(worker string) {
	if t, ok := j.pendingW[worker]; ok {
		delete(j.pendingW, worker)
		delete(j.pendingT[t], worker)
	}
	delete(j.pendingTestW, worker)
}

// Submit records the worker's answer for their pending task. It returns
// whether the task just reached global completion and, if so, the consensus
// answer.
func (j *refJob) Submit(worker string, taskID int, ans task.Answer) (completedNow bool, consensus task.Answer, err error) {
	if ans != task.Yes && ans != task.No {
		return false, task.None, errors.New("core: answer must be YES or NO")
	}
	// Test submissions: record exposure only; the vote never enters the
	// consensus tally.
	if t, ok := j.pendingTestW[worker]; ok && t == taskID {
		delete(j.pendingTestW, worker)
		set, ok := j.testVoted[taskID]
		if !ok {
			set = map[string]bool{}
			j.testVoted[taskID] = set
		}
		set[worker] = true
		return false, task.None, nil
	}
	if t, ok := j.pendingW[worker]; !ok || t != taskID {
		return false, task.None, ErrNoPending
	}
	delete(j.pendingW, worker)
	delete(j.pendingT[taskID], worker)
	j.votes[taskID] = append(j.votes[taskID], aggregate.Vote{Worker: worker, Answer: ans})
	set, ok := j.voted[taskID]
	if !ok {
		set = map[string]bool{}
		j.voted[taskID] = set
	}
	set[worker] = true

	if _, done := j.completed[taskID]; done {
		// Late vote on an already-consensused task (possible when a test
		// assignment was outstanding at completion time); keep the vote,
		// no state change.
		return false, task.None, nil
	}
	var yes, no int
	for _, v := range j.votes[taskID] {
		if v.Answer == task.Yes {
			yes++
		} else {
			no++
		}
	}
	switch {
	case yes >= j.need:
		j.completed[taskID] = task.Yes
		return true, task.Yes, nil
	case no >= j.need:
		j.completed[taskID] = task.No
		return true, task.No, nil
	case yes+no >= j.k:
		// Even k exact tie: resolve to NO deterministically.
		j.completed[taskID] = task.No
		return true, task.No, nil
	}
	return false, task.None, nil
}

// ForceComplete marks taskID globally completed with the given answer
// without any votes. The framework uses it to seed qualification microtasks,
// whose results come from requester ground truth (Section 5).
func (j *refJob) ForceComplete(taskID int, ans task.Answer) {
	if taskID < 0 || taskID >= j.ds.Len() {
		return
	}
	j.completed[taskID] = ans
}

// Votes returns the votes collected for taskID (shared slice; do not
// mutate).
func (j *refJob) Votes(taskID int) []aggregate.Vote { return j.votes[taskID] }

// AllVotes returns a copy of the vote table keyed by task.
func (j *refJob) AllVotes() map[int][]aggregate.Vote {
	out := make(map[int][]aggregate.Vote, len(j.votes))
	for t, vs := range j.votes {
		out[t] = append([]aggregate.Vote(nil), vs...)
	}
	return out
}

// Completed returns the consensus answer of taskID, if reached.
func (j *refJob) Completed(taskID int) (task.Answer, bool) {
	a, ok := j.completed[taskID]
	return a, ok
}

// NumCompleted returns the number of globally completed tasks.
func (j *refJob) NumCompleted() int { return len(j.completed) }

// Done reports whether every task reached consensus.
func (j *refJob) Done() bool { return len(j.completed) == j.ds.Len() }

// Uncompleted returns the IDs of tasks without consensus, ascending.
func (j *refJob) Uncompleted() []int {
	var out []int
	for t := 0; t < j.ds.Len(); t++ {
		if _, done := j.completed[t]; !done {
			out = append(out, t)
		}
	}
	return out
}

// MajorityResults aggregates every task by majority vote: the consensus for
// completed tasks, the current leading answer otherwise (None if no votes
// or tied).
func (j *refJob) MajorityResults() map[int]task.Answer {
	out := make(map[int]task.Answer, j.ds.Len())
	for t := 0; t < j.ds.Len(); t++ {
		if a, done := j.completed[t]; done {
			out[t] = a
			continue
		}
		raw := make([]task.Answer, 0, len(j.votes[t]))
		for _, v := range j.votes[t] {
			raw = append(raw, v.Answer)
		}
		if a, ok := aggregate.MajorityVote(raw); ok {
			out[t] = a
		} else {
			out[t] = task.None
		}
	}
	return out
}
