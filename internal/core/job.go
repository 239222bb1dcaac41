// Package core implements the iCrowd framework of Figure 1: the Strategy
// interface every approach (iCrowd and the baselines) exposes to the crowd
// simulator and to the AMT-style platform, the shared crowdsourcing job
// bookkeeping (assignments, votes, consensus), and the adaptive iCrowd
// strategy itself wiring together the Warm-Up component (Section 5), the
// Accuracy Estimator (Section 3) and the Microtask Assigner (Section 4).
package core

import (
	"errors"
	"fmt"
	"slices"

	"icrowd/internal/aggregate"
	"icrowd/internal/task"
)

// Strategy is the contract between an assignment approach and the crowd:
// workers request tasks and submit answers one at a time, exactly like the
// request/submit loop of the AMT ExternalQuestion integration (Appendix A).
type Strategy interface {
	// Name identifies the approach (e.g. "iCrowd", "RandomMV").
	Name() string
	// RequestTask picks the next microtask for the requesting worker.
	// ok is false when the strategy has nothing for this worker (all tasks
	// completed, worker rejected, or worker already holds a task).
	RequestTask(worker string) (taskID int, ok bool)
	// SubmitAnswer records the worker's answer to their pending task.
	SubmitAnswer(worker string, taskID int, ans task.Answer) error
	// WorkerInactive tells the strategy a worker left; any pending
	// assignment is released so remaining tasks cannot deadlock.
	WorkerInactive(worker string)
	// Done reports whether every microtask is globally completed.
	Done() bool
	// Results returns the aggregated answer per task (the approach's own
	// aggregation scheme: MV, EM, or probabilistic verification).
	Results() map[int]task.Answer
}

// ErrNoPending reports a submission for a task the worker does not hold.
var ErrNoPending = errors.New("core: worker has no pending assignment for task")

// ErrBusy reports an assignment to a worker already holding a task.
var ErrBusy = errors.New("core: worker already holds an assignment")

// Job tracks the shared crowdsourcing state: who is assigned what, the votes
// per microtask, and which tasks reached consensus. All strategies reuse it.
//
// The state is dense, one slot per microtask in a task-indexed slice: the
// votes, the workers holding a regular assignment, the workers it was
// test-assigned to, and the consensus. Those worker lists are short — at
// most k voters and holders plus the Step-3 testers — so the W^d membership
// behind Touched is a scan of a few IDs, and Capacity and Done are
// counters, with no per-task hash set. The one map is worker -> held task,
// an entry per busy worker.
type Job struct {
	ds   *task.Dataset
	k    int
	need int // votes on one side required for consensus

	tasks     []taskState
	held      map[string]hold // worker -> the task they hold
	completed int             // tasks with consensus
}

// taskState is one microtask's slot in Job.
type taskState struct {
	votes   []aggregate.Vote // in submission order
	holders []string         // workers holding a regular assignment, sorted
	// tested are the workers given the task as a test assignment (Section
	// 4.1 Step 3 / Section 5), answered or still held: answers collected
	// purely to estimate a worker's accuracy. They never count toward the
	// k-vote consensus, honoring the Step-2 constraint that a microtask is
	// assigned to at most its available assignment size.
	tested []string
	done   bool
	answer task.Answer // consensus, once done
}

// hold is the assignment a busy worker holds.
type hold struct {
	task int
	test bool
}

// NewJob creates bookkeeping for assigning ds with assignment size k.
// The paper uses odd k so majority voting cannot tie; even k is accepted
// and ties resolve to NO.
func NewJob(ds *task.Dataset, k int) (*Job, error) {
	if k < 1 {
		return nil, errors.New("core: assignment size must be >= 1")
	}
	return &Job{
		ds:    ds,
		k:     k,
		need:  k/2 + 1,
		tasks: make([]taskState, ds.Len()),
		held:  map[string]hold{},
	}, nil
}

// task returns taskID's slot, nil when the ID is out of range.
func (j *Job) task(taskID int) *taskState {
	if taskID < 0 || taskID >= len(j.tasks) {
		return nil
	}
	return &j.tasks[taskID]
}

// touched reports whether the worker voted on, was test-assigned, or holds
// the task.
func (s *taskState) touched(worker string) bool {
	for i := range s.votes {
		if s.votes[i].Worker == worker {
			return true
		}
	}
	return slices.Contains(s.holders, worker) || slices.Contains(s.tested, worker)
}

// Dataset returns the job's dataset.
func (j *Job) Dataset() *task.Dataset { return j.ds }

// K returns the assignment size.
func (j *Job) K() int { return j.k }

// Capacity returns the number of additional workers taskID can take:
// k minus collected votes minus outstanding assignments. Completed tasks
// have zero capacity.
func (j *Job) Capacity(taskID int) int {
	s := j.task(taskID)
	if s == nil {
		return j.k
	}
	if s.done {
		return 0
	}
	return max(j.k-len(s.votes)-len(s.holders), 0)
}

// Touched reports whether the worker has voted on, test-answered, or
// currently holds taskID (i.e. is in the paper's W^d(t), extended with test
// exposure so no worker ever sees the same microtask twice).
func (j *Job) Touched(worker string, taskID int) bool {
	s := j.task(taskID)
	return s != nil && s.touched(worker)
}

// Pending returns the task the worker currently holds (regular or test).
func (j *Job) Pending(worker string) (int, bool) {
	h, ok := j.held[worker]
	return h.task, ok
}

// PendingTest reports whether the worker's pending assignment on taskID is
// a test assignment.
func (j *Job) PendingTest(worker string, taskID int) bool {
	h, ok := j.held[worker]
	return ok && h.test && h.task == taskID
}

// PendingWorkers returns the workers currently holding taskID, sorted.
func (j *Job) PendingWorkers(taskID int) []string {
	s := j.task(taskID)
	if s == nil {
		return []string{}
	}
	return append(make([]string, 0, len(s.holders)), s.holders...)
}

// Assign hands taskID to the worker as a regular (consensus-counting)
// assignment. It enforces the one-task-at-a-time rule and the no-repeat
// rule; completed tasks cannot take regular assignments.
func (j *Job) Assign(worker string, taskID int) error {
	s, err := j.assignable(worker, taskID)
	if err != nil {
		return err
	}
	if s.done {
		return fmt.Errorf("core: task %d already completed", taskID)
	}
	j.held[worker] = hold{task: taskID}
	i, _ := slices.BinarySearch(s.holders, worker)
	s.holders = slices.Insert(s.holders, i, worker)
	return nil
}

// AssignTest hands taskID to the worker as a test assignment: the answer is
// used only for accuracy estimation and never counts toward consensus.
// Unlike Assign, completed tasks are allowed (they are the preferred test
// targets — their consensus grades the answer immediately).
func (j *Job) AssignTest(worker string, taskID int) error {
	s, err := j.assignable(worker, taskID)
	if err != nil {
		return err
	}
	j.held[worker] = hold{task: taskID, test: true}
	s.tested = append(s.tested, worker)
	return nil
}

// assignable checks the rules both kinds of assignment share: the task
// exists, the worker holds nothing, and the worker never touched the task.
func (j *Job) assignable(worker string, taskID int) (*taskState, error) {
	s := j.task(taskID)
	if s == nil {
		return nil, fmt.Errorf("core: task %d out of range", taskID)
	}
	if _, busy := j.held[worker]; busy {
		return nil, ErrBusy
	}
	if s.touched(worker) {
		return nil, fmt.Errorf("core: worker %s already touched task %d", worker, taskID)
	}
	return s, nil
}

// Release drops the worker's pending assignment (worker became inactive).
func (j *Job) Release(worker string) {
	h, ok := j.held[worker]
	if !ok {
		return
	}
	delete(j.held, worker)
	s := &j.tasks[h.task]
	if h.test {
		i := slices.Index(s.tested, worker)
		s.tested = slices.Delete(s.tested, i, i+1)
	} else {
		s.unhold(worker)
	}
}

// unhold removes the worker from the task's holders.
func (s *taskState) unhold(worker string) {
	i, _ := slices.BinarySearch(s.holders, worker)
	s.holders = slices.Delete(s.holders, i, i+1)
}

// Submit records the worker's answer for their pending task. It returns
// whether the task just reached global completion and, if so, the consensus
// answer.
func (j *Job) Submit(worker string, taskID int, ans task.Answer) (completedNow bool, consensus task.Answer, err error) {
	if ans != task.Yes && ans != task.No {
		return false, task.None, errors.New("core: answer must be YES or NO")
	}
	h, ok := j.held[worker]
	if !ok || h.task != taskID {
		return false, task.None, ErrNoPending
	}
	delete(j.held, worker)
	if h.test {
		// Test submissions: the worker stays in tested as exposure only;
		// the vote never enters the consensus tally.
		return false, task.None, nil
	}
	s := &j.tasks[taskID]
	s.unhold(worker)
	s.votes = append(s.votes, aggregate.Vote{Worker: worker, Answer: ans})

	if s.done {
		// Late vote on an already-consensused task (possible when a test
		// assignment was outstanding at completion time); keep the vote,
		// no state change.
		return false, task.None, nil
	}
	var yes, no int
	for _, v := range s.votes {
		if v.Answer == task.Yes {
			yes++
		} else {
			no++
		}
	}
	switch {
	case yes >= j.need:
		consensus = task.Yes
	case no >= j.need, yes+no >= j.k:
		// yes+no >= k without a majority is an even-k exact tie: resolve
		// to NO deterministically.
		consensus = task.No
	default:
		return false, task.None, nil
	}
	j.complete(s, consensus)
	return true, consensus, nil
}

// complete records the task's consensus.
func (j *Job) complete(s *taskState, ans task.Answer) {
	if !s.done {
		s.done = true
		j.completed++
	}
	s.answer = ans
}

// ForceComplete marks taskID globally completed with the given answer
// without any votes. The framework uses it to seed qualification microtasks,
// whose results come from requester ground truth (Section 5).
func (j *Job) ForceComplete(taskID int, ans task.Answer) {
	if s := j.task(taskID); s != nil {
		j.complete(s, ans)
	}
}

// Votes returns the votes collected for taskID (shared slice; do not
// mutate).
func (j *Job) Votes(taskID int) []aggregate.Vote {
	if s := j.task(taskID); s != nil {
		return s.votes
	}
	return nil
}

// AllVotes returns a copy of the vote table keyed by task.
func (j *Job) AllVotes() map[int][]aggregate.Vote {
	out := map[int][]aggregate.Vote{}
	for t := range j.tasks {
		if vs := j.tasks[t].votes; len(vs) > 0 {
			out[t] = append([]aggregate.Vote(nil), vs...)
		}
	}
	return out
}

// Completed returns the consensus answer of taskID, if reached.
func (j *Job) Completed(taskID int) (task.Answer, bool) {
	if s := j.task(taskID); s != nil && s.done {
		return s.answer, true
	}
	return 0, false
}

// NumCompleted returns the number of globally completed tasks.
func (j *Job) NumCompleted() int { return j.completed }

// Done reports whether every task reached consensus.
func (j *Job) Done() bool { return j.completed == len(j.tasks) }

// Uncompleted returns the IDs of tasks without consensus, ascending.
func (j *Job) Uncompleted() []int {
	var out []int
	for t := range j.tasks {
		if !j.tasks[t].done {
			out = append(out, t)
		}
	}
	return out
}

// MajorityResults aggregates every task by majority vote: the consensus for
// completed tasks, the current leading answer otherwise (None if no votes
// or tied).
func (j *Job) MajorityResults() map[int]task.Answer {
	out := make(map[int]task.Answer, len(j.tasks))
	for t := range j.tasks {
		s := &j.tasks[t]
		if s.done {
			out[t] = s.answer
			continue
		}
		raw := make([]task.Answer, 0, len(s.votes))
		for _, v := range s.votes {
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
