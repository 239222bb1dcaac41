package core

import (
	"math"
	"math/rand"
	"testing"

	"icrowd/internal/aggregate"
	"icrowd/internal/estimate"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

func table1Basis(t testing.TB) (*task.Dataset, *ppr.Basis) {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

func TestJobLifecycle(t *testing.T) {
	ds := task.ProductMatching()
	j, err := NewJob(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if j.K() != 3 || j.Dataset() != ds {
		t.Fatal("accessors mismatch")
	}
	if j.Capacity(0) != 3 {
		t.Fatalf("fresh capacity = %d", j.Capacity(0))
	}
	if err := j.Assign("a", 0); err != nil {
		t.Fatal(err)
	}
	if j.Capacity(0) != 2 {
		t.Fatalf("capacity after assign = %d", j.Capacity(0))
	}
	if !j.Touched("a", 0) || j.Touched("b", 0) {
		t.Fatal("Touched mismatch")
	}
	if err := j.Assign("a", 1); err != ErrBusy {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	if _, _, err := j.Submit("a", 1, task.Yes); err != ErrNoPending {
		t.Fatalf("want ErrNoPending, got %v", err)
	}
	if _, _, err := j.Submit("a", 0, task.None); err == nil {
		t.Fatal("None answer should error")
	}
	done, _, err := j.Submit("a", 0, task.Yes)
	if err != nil || done {
		t.Fatalf("first vote: done=%v err=%v", done, err)
	}
	// Re-assignment of the same task to the same worker is forbidden.
	if err := j.Assign("a", 0); err == nil {
		t.Fatal("double vote should be rejected")
	}
	_ = j.Assign("b", 0)
	done, _, _ = j.Submit("b", 0, task.Yes)
	if !done {
		t.Fatal("two YES votes with k=3 reach the (k+1)/2 consensus")
	}
	if a, ok := j.Completed(0); !ok || a != task.Yes {
		t.Fatalf("Completed = %v %v", a, ok)
	}
	if j.Capacity(0) != 0 {
		t.Fatal("completed task should have zero capacity")
	}
	if err := j.Assign("c", 0); err == nil {
		t.Fatal("assigning completed task should error")
	}
	if j.NumCompleted() != 1 || j.Done() {
		t.Fatal("completion bookkeeping wrong")
	}
	if got := len(j.Uncompleted()); got != ds.Len()-1 {
		t.Fatalf("Uncompleted = %d", got)
	}
}

func TestJobReleaseAndPending(t *testing.T) {
	ds := task.ProductMatching()
	j, _ := NewJob(ds, 3)
	_ = j.Assign("a", 2)
	if tid, ok := j.Pending("a"); !ok || tid != 2 {
		t.Fatalf("Pending = %d %v", tid, ok)
	}
	if ws := j.PendingWorkers(2); len(ws) != 1 || ws[0] != "a" {
		t.Fatalf("PendingWorkers = %v", ws)
	}
	j.Release("a")
	if _, ok := j.Pending("a"); ok {
		t.Fatal("Release should clear pending")
	}
	if j.Capacity(2) != 3 {
		t.Fatal("Release should restore capacity")
	}
	j.Release("ghost") // no-op
}

func TestJobLateVoteAfterConsensus(t *testing.T) {
	ds := task.ProductMatching()
	j, _ := NewJob(ds, 3)
	_ = j.Assign("a", 0)
	_ = j.Assign("b", 0)
	_ = j.Assign("c", 0) // test assignment outstanding
	_, _, _ = j.Submit("a", 0, task.No)
	done, _, _ := j.Submit("b", 0, task.No)
	if !done {
		t.Fatal("consensus expected")
	}
	// c's vote arrives late: kept, no state change.
	done, _, err := j.Submit("c", 0, task.No)
	if err != nil || done {
		t.Fatalf("late vote: done=%v err=%v", done, err)
	}
	if got := len(j.Votes(0)); got != 3 {
		t.Fatalf("votes kept = %d", got)
	}
}

func TestJobEvenKTieResolvesNo(t *testing.T) {
	ds := task.ProductMatching()
	j, _ := NewJob(ds, 2)
	_ = j.Assign("a", 0)
	_, _, _ = j.Submit("a", 0, task.Yes)
	_ = j.Assign("b", 0)
	done, ans, _ := j.Submit("b", 0, task.No)
	if !done || ans != task.No {
		t.Fatalf("tie: done=%v ans=%v", done, ans)
	}
}

func TestJobValidation(t *testing.T) {
	ds := task.ProductMatching()
	if _, err := NewJob(ds, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	j, _ := NewJob(ds, 3)
	if err := j.Assign("a", -1); err == nil {
		t.Fatal("negative task should error")
	}
	if err := j.Assign("a", 99); err == nil {
		t.Fatal("out-of-range task should error")
	}
}

func TestJobMajorityResults(t *testing.T) {
	ds := task.ProductMatching()
	j, _ := NewJob(ds, 3)
	_ = j.Assign("a", 0)
	_, _, _ = j.Submit("a", 0, task.Yes)
	res := j.MajorityResults()
	if res[0] != task.Yes {
		t.Fatalf("leading answer should surface: %v", res[0])
	}
	if res[1] != task.None {
		t.Fatalf("unvoted task should be None: %v", res[1])
	}
	if got := j.AllVotes(); len(got[0]) != 1 {
		t.Fatalf("AllVotes = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	ds, b := table1Basis(t)
	bad := DefaultConfig()
	bad.K = 0
	if _, err := New(ds, b, bad); err == nil {
		t.Fatal("K=0 should error")
	}
	bad = DefaultConfig()
	bad.Q = 0
	if _, err := New(ds, b, bad); err == nil {
		t.Fatal("Q=0 should error")
	}
	bad = DefaultConfig()
	bad.Mode = "bogus"
	if _, err := New(ds, b, bad); err == nil {
		t.Fatal("unknown mode should error")
	}
	other := task.GenerateItemCompare(1)
	if _, err := New(other, b, DefaultConfig()); err == nil {
		t.Fatal("basis/dataset mismatch should error")
	}
	// Empty mode defaults to Adapt, empty strategy to InfQF.
	cfg := DefaultConfig()
	cfg.Mode = ""
	cfg.QualStrategy = ""
	ic, err := New(ds, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Name() != "iCrowd" {
		t.Fatalf("Name = %s", ic.Name())
	}
}

func TestQualificationFlowAndRejection(t *testing.T) {
	ds, b := table1Basis(t)
	cfg := DefaultConfig()
	cfg.Q = 3
	ic, err := New(ds, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qual := ic.QualificationTasks()
	if len(qual) != 3 {
		t.Fatalf("qualification size = %d", len(qual))
	}
	// "good" answers every qualification task correctly.
	for range qual {
		tid, ok := ic.RequestTask("good")
		if !ok {
			t.Fatal("expected qualification task")
		}
		if err := ic.SubmitAnswer("good", tid, ds.Tasks[tid].Truth); err != nil {
			t.Fatal(err)
		}
	}
	if ic.Rejected("good") {
		t.Fatal("perfect worker should not be rejected")
	}
	// With no graph evidence an estimate is exactly the base accuracy.
	if est := ic.Estimator(); est.PriorAt(est.Ordinal("good")) != 1 {
		t.Fatalf("good base = %v", est.PriorAt(est.Ordinal("good")))
	}
	// "bad" answers every qualification task incorrectly.
	for range qual {
		tid, ok := ic.RequestTask("bad")
		if !ok {
			t.Fatal("expected qualification task")
		}
		if err := ic.SubmitAnswer("bad", tid, ds.Tasks[tid].Truth.Flip()); err != nil {
			t.Fatal(err)
		}
	}
	if !ic.Rejected("bad") {
		t.Fatal("all-wrong worker should be rejected")
	}
	if _, ok := ic.RequestTask("bad"); ok {
		t.Fatal("rejected worker should get nothing")
	}
	// Re-requesting during qualification re-serves the same pending task.
	t1, _ := ic.RequestTask("new")
	t2, _ := ic.RequestTask("new")
	if t1 != t2 {
		t.Fatalf("pending qualification task changed: %d vs %d", t1, t2)
	}
}

func TestQualificationTasksPreCompleted(t *testing.T) {
	ds, b := table1Basis(t)
	ic, err := New(ds, b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ic.QualificationTasks() {
		a, done := ic.Job().Completed(q)
		if !done || a != ds.Tasks[q].Truth {
			t.Fatalf("qualification task %d should be pre-completed with truth", q)
		}
	}
}

// runWorkers drives the framework with simulated workers until done.
func runWorkers(t *testing.T, ic *ICrowd, ds *task.Dataset, accs map[string]float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, 0, len(accs))
	for id := range accs {
		ids = append(ids, id)
	}
	for step := 0; step < 20000 && !ic.Done(); step++ {
		w := ids[rng.Intn(len(ids))]
		tid, ok := ic.RequestTask(w)
		if !ok {
			continue
		}
		ans := ds.Tasks[tid].Truth
		if rng.Float64() > accs[w] {
			ans = ans.Flip()
		}
		if err := ic.SubmitAnswer(w, tid, ans); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

func TestAdaptCompletesAllTasks(t *testing.T) {
	for _, mode := range []Mode{ModeAdapt, ModeQFOnly, ModeBestEffort} {
		ds, b := table1Basis(t)
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Q = 3
		ic, err := New(ds, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs := map[string]float64{"w1": 0.9, "w2": 0.85, "w3": 0.8, "w4": 0.75, "w5": 0.7}
		runWorkers(t, ic, ds, accs, 11)
		if !ic.Done() {
			t.Fatalf("mode %s did not complete all tasks", mode)
		}
		res := ic.Results()
		if len(res) != ds.Len() {
			t.Fatalf("mode %s results size %d", mode, len(res))
		}
		correct := 0
		for i, tk := range ds.Tasks {
			if res[i] == tk.Truth {
				correct++
			}
		}
		// Accurate crowd: expect strong overall accuracy.
		if frac := float64(correct) / float64(ds.Len()); frac < 0.7 {
			t.Fatalf("mode %s accuracy %.2f too low", mode, frac)
		}
	}
}

func TestConsensusFeedsEstimator(t *testing.T) {
	ds, b := table1Basis(t)
	cfg := DefaultConfig()
	cfg.Q = 3
	ic, _ := New(ds, b, cfg)
	accs := map[string]float64{"w1": 0.95, "w2": 0.9, "w3": 0.85}
	runWorkers(t, ic, ds, accs, 5)
	// After the run, consensus observations beyond the 3 qualification
	// tasks must have moved some worker's estimates away from what
	// qualification alone gives.
	ref := qualificationOnly(ic, b)
	found := false
	for _, w := range []string{"w1", "w2", "w3"} {
		if !sameEstimates(ic.Estimator(), ref, w, ds.Len()) {
			found = true
		}
	}
	if !found {
		t.Fatal("no consensus observations recorded")
	}
}

// qualificationOnly rebuilds the estimator that qualification alone leaves
// behind: every worker's graded warm-up answers, observed in serving order,
// and the base accuracy they earn once all are in.
func qualificationOnly(ic *ICrowd, b *ppr.Basis) *estimate.Estimator {
	ref := estimate.New(b, ic.cfg.Lambda)
	for _, info := range ic.order {
		for _, t := range ic.qual {
			if ans, ok := info.qualAnswers[t]; ok {
				correct, _ := ic.warm.Grade(t, ans)
				_ = ref.ObserveQualification(info.id, t, correct)
			}
		}
		if len(info.qualAnswers) == len(ic.qual) {
			avg, _ := ic.warm.Evaluate(info.qualAnswers)
			ref.SetBase(info.id, avg)
		}
	}
	return ref
}

// sameEstimates reports whether worker w estimates bit-identically in a
// and b on all n tasks.
func sameEstimates(a, b *estimate.Estimator, w string, n int) bool {
	for t := 0; t < n; t++ {
		if math.Float64bits(a.Accuracy(w, t)) != math.Float64bits(b.Accuracy(w, t)) {
			return false
		}
	}
	return true
}

func TestQFOnlyDoesNotUpdateAfterQualification(t *testing.T) {
	ds, b := table1Basis(t)
	cfg := DefaultConfig()
	cfg.Mode = ModeQFOnly
	cfg.Q = 3
	ic, _ := New(ds, b, cfg)
	accs := map[string]float64{"w1": 0.95, "w2": 0.9, "w3": 0.85}
	runWorkers(t, ic, ds, accs, 5)
	// Estimation is frozen after qualification: every estimate is exactly
	// what the qualification answers alone give.
	ref := qualificationOnly(ic, b)
	for _, w := range []string{"w1", "w2", "w3"} {
		if !sameEstimates(ic.Estimator(), ref, w, ds.Len()) {
			t.Fatalf("QF-Only recorded observations for %s beyond qualification", w)
		}
	}
}

func TestWorkerInactiveReleases(t *testing.T) {
	ds, b := table1Basis(t)
	cfg := DefaultConfig()
	cfg.Q = 3
	ic, _ := New(ds, b, cfg)
	// Qualify one worker.
	for i := 0; i < 3; i++ {
		tid, _ := ic.RequestTask("w")
		_ = ic.SubmitAnswer("w", tid, ds.Tasks[tid].Truth)
	}
	tid, ok := ic.RequestTask("w")
	if !ok {
		t.Fatal("expected an assignment")
	}
	ic.WorkerInactive("w")
	if _, busy := ic.Job().Pending("w"); busy {
		t.Fatal("inactive worker should hold nothing")
	}
	// Submitting after release errors.
	if err := ic.SubmitAnswer("w", tid, task.Yes); err == nil {
		t.Fatal("submit after release should error")
	}
	// The worker can come back and request again.
	if _, ok := ic.RequestTask("w"); !ok {
		t.Fatal("returning worker should get a task")
	}
}

func TestSubmitUnknownWorker(t *testing.T) {
	ds, b := table1Basis(t)
	ic, _ := New(ds, b, DefaultConfig())
	if err := ic.SubmitAnswer("ghost", 0, task.Yes); err == nil {
		t.Fatal("unknown worker should error")
	}
}

func TestMajorityOfVotesEq1Consistency(t *testing.T) {
	// Sanity link between Job consensus and Eq. (1): with k=3, consensus
	// requires 2 agreeing votes, the same threshold Eq. (1) integrates over.
	ds := task.ProductMatching()
	j, _ := NewJob(ds, 3)
	_ = j.Assign("a", 0)
	_, _, _ = j.Submit("a", 0, task.Yes)
	_ = j.Assign("b", 0)
	done, _, _ := j.Submit("b", 0, task.No)
	if done {
		t.Fatal("1-1 split must not complete with k=3")
	}
	_ = j.Assign("c", 0)
	done, ans, _ := j.Submit("c", 0, task.No)
	if !done || ans != task.No {
		t.Fatalf("2-1 split: done=%v ans=%v", done, ans)
	}
	// Votes retrievable for Eq. (5) style post-processing.
	if len(j.Votes(0)) != 3 {
		t.Fatal("votes missing")
	}
	var raw []task.Answer
	for _, v := range j.Votes(0) {
		raw = append(raw, v.Answer)
	}
	if mv, ok := aggregate.MajorityVote(raw); !ok || mv != ans {
		t.Fatal("majority vote disagrees with consensus")
	}
}
