package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"icrowd/internal/estimate"
	"icrowd/internal/ppr"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

func table1Estimator(t testing.TB) *estimate.Estimator {
	t.Helper()
	ds := task.ProductMatching()
	g, err := simgraph.Build(ds.Len(), simgraph.JaccardMetric(ds), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := ppr.Precompute(g, ppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(basis, 0)
}

func TestTopWorkersBasic(t *testing.T) {
	e := table1Estimator(t)
	e.EnsureWorker("low", 0.55)
	e.EnsureWorker("mid", 0.7)
	e.EnsureWorker("high", 0.9)
	got := TopWorkers(e, 0, 2, []string{"low", "mid", "high"})
	if len(got) != 2 || got[0].Worker != "high" || got[1].Worker != "mid" {
		t.Fatalf("TopWorkers = %v", got)
	}
	if got[0].Accuracy != 0.9 {
		t.Fatalf("accuracy = %v", got[0].Accuracy)
	}
	// k larger than eligible set returns all.
	if got := TopWorkers(e, 0, 10, []string{"low", "mid"}); len(got) != 2 {
		t.Fatalf("over-ask = %v", got)
	}
	if got := TopWorkers(e, 0, 0, []string{"low"}); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestTopWorkersUsesGraphEvidence(t *testing.T) {
	// A lower-base worker with strong in-cluster evidence should outrank a
	// higher-base worker on the evidenced task.
	e := table1Estimator(t)
	e.EnsureWorker("generalist", 0.65)
	e.EnsureWorker("specialist", 0.6)
	_ = e.ObserveQualification("specialist", 0, true)                // t1 correct
	_ = e.ObserveQualification("specialist", 4, true)                // t5 correct
	_ = e.ObserveQualification("specialist", 5, true)                // t6 correct
	got := TopWorkers(e, 3, 1, []string{"generalist", "specialist"}) // t4 (iPhone)
	if got[0].Worker != "specialist" {
		t.Fatalf("expected evidence to beat base: %v", got)
	}
}

func TestIndexMatchesReference(t *testing.T) {
	// The index must produce identical top-worker sets as the O(|W|) scan,
	// across random evidence patterns.
	e := table1Estimator(t)
	rng := rand.New(rand.NewSource(3))
	var active []string
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("w%02d", i)
		active = append(active, id)
		e.EnsureWorker(id, 0.4+0.5*rng.Float64())
		// Random qualification evidence.
		for _, tid := range []int{0, 1, 2} {
			if rng.Float64() < 0.5 {
				_ = e.ObserveQualification(id, tid, rng.Float64() < 0.5)
			}
		}
	}
	ix := NewIndex(e, active)
	if ix.NumActive() != 30 {
		t.Fatalf("NumActive = %d", ix.NumActive())
	}
	excluded := map[string]bool{"w03": true, "w17": true}
	excl := func(w string) bool { return excluded[w] }
	for tid := 0; tid < 12; tid++ {
		for _, k := range []int{1, 3, 5} {
			var eligible []string
			for _, w := range active {
				if !excluded[w] {
					eligible = append(eligible, w)
				}
			}
			want := TopWorkers(e, tid, k, eligible)
			got := ix.TopWorkers(tid, k, excl)
			if len(got) != len(want) {
				t.Fatalf("task %d k %d: %v vs %v", tid, k, got, want)
			}
			for i := range got {
				if got[i].Worker != want[i].Worker || math.Abs(got[i].Accuracy-want[i].Accuracy) > 1e-12 {
					t.Fatalf("task %d k %d pos %d: %v vs %v", tid, k, i, got[i], want[i])
				}
			}
		}
	}
	if got := ix.TopWorkers(0, 0, nil); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

// TestIndexTopWorkersParity pins the bounded top-k selection of
// Index.TopWorkers to the O(|W|) reference scan in the regime where exact
// ties are common: 200 workers share four base accuracies, so every worker
// without evidence on a task ties with a quarter of the crowd. Workers with
// the same base and the same qualification outcomes tie on evidence too,
// and a worker at base 1 who answered every qualification correctly
// estimates exactly 1 on the tasks their evidence reaches, tying across
// the support boundary with every base-1 worker outside it. Results must
// agree element by element, accuracies bit for bit, and both must follow
// the (accuracy desc, worker ID asc) order checked here independently of
// the package's comparator.
func TestIndexTopWorkersParity(t *testing.T) {
	e := table1Estimator(t)
	rng := rand.New(rand.NewSource(13))
	bases := []float64{0.6, 0.75, 0.9, 1}
	const n = 200
	var active []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%03d", rng.Intn(1000)*1000+i) // IDs unrelated to base
		e.EnsureWorker(id, bases[rng.Intn(len(bases))])
		if rng.Float64() < 0.4 {
			for _, tid := range []int{0, 1, 2} {
				if rng.Float64() < 0.5 {
					_ = e.ObserveQualification(id, tid, rng.Float64() < 0.7)
				}
			}
		}
		// Some workers with evidence are not active: the index must skip
		// them even though the estimator lists them in the support.
		if rng.Float64() < 0.85 {
			active = append(active, id)
		}
	}
	ix := NewIndex(e, active)
	ranked := func(cs []Candidate) bool {
		for i := 1; i < len(cs); i++ {
			a, b := cs[i-1], cs[i]
			if a.Accuracy < b.Accuracy || (a.Accuracy == b.Accuracy && a.Worker > b.Worker) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 20; trial++ {
		excluded := map[string]bool{}
		var eligible []string
		for _, w := range active {
			if rng.Float64() < 0.2 {
				excluded[w] = true
			} else {
				eligible = append(eligible, w)
			}
		}
		excl := func(w string) bool { return excluded[w] }
		for tid := 0; tid < task.ProductMatching().Len(); tid++ {
			for _, k := range []int{1, 2, 3, 5, n + 1} {
				want := TopWorkers(e, tid, k, eligible)
				got := ix.TopWorkers(tid, k, excl)
				if !ranked(want) {
					t.Fatalf("trial %d task %d k %d: reference out of order: %v", trial, tid, k, want)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d task %d k %d: got %d candidates, want %d", trial, tid, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Worker != want[i].Worker || math.Float64bits(got[i].Accuracy) != math.Float64bits(want[i].Accuracy) {
						t.Fatalf("trial %d task %d k %d pos %d: got %+v, want %+v", trial, tid, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func cand(taskID int, ws ...interface{}) CandidateAssignment {
	a := CandidateAssignment{Task: taskID}
	for i := 0; i < len(ws); i += 2 {
		a.Workers = append(a.Workers, Candidate{Worker: ws[i].(string), Accuracy: ws[i+1].(float64)})
	}
	return a
}

func TestGreedyPaperExample(t *testing.T) {
	// Table 3: greedy picks t11 {w5,w3}, removing t4 and t10, then t9.
	cands := []CandidateAssignment{
		cand(4, "w5", 0.75, "w4", 0.7, "w1", 0.6),
		cand(11, "w5", 0.85, "w3", 0.8),
		cand(9, "w4", 0.85, "w2", 0.75, "w1", 0.7),
		cand(10, "w3", 0.7, "w1", 0.6),
	}
	got := Greedy(cands)
	if len(got) != 2 {
		t.Fatalf("scheme size %d, want 2", len(got))
	}
	if got[0].Task != 11 || got[1].Task != 9 {
		t.Fatalf("scheme = %v", got)
	}
	wantVal := 0.85 + 0.8 + 0.85 + 0.75 + 0.7
	if v := TotalValue(got); math.Abs(v-wantVal) > 1e-12 {
		t.Fatalf("value %v, want %v", v, wantVal)
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := 3 + rng.Intn(8)
		var cands []CandidateAssignment
		nt := 1 + rng.Intn(15)
		for ti := 0; ti < nt; ti++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(nw)
			var ws []Candidate
			for _, wi := range perm[:k] {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: 0.5 + rng.Float64()/2})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		a, b := Greedy(cands), GreedyReference(cands)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Task != b[i].Task {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySchemesAreDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []CandidateAssignment
		for ti := 0; ti < 20; ti++ {
			k := 1 + rng.Intn(3)
			var ws []Candidate
			for _, wi := range rng.Perm(6)[:k] {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		used := map[string]bool{}
		for _, a := range Greedy(cands) {
			for _, w := range a.Workers {
				if used[w.Worker] {
					return false
				}
				used[w.Worker] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySkipsEmptySets(t *testing.T) {
	cands := []CandidateAssignment{
		{Task: 0},
		cand(1, "a", 0.9),
	}
	got := Greedy(cands)
	if len(got) != 1 || got[0].Task != 1 {
		t.Fatalf("scheme = %v", got)
	}
	if got := Greedy(nil); got != nil {
		t.Fatal("empty input should give empty scheme")
	}
}

func TestOptimalSimple(t *testing.T) {
	// Greedy is fooled: it picks the 0.9-avg pair, blocking two 0.8 tasks.
	cands := []CandidateAssignment{
		cand(0, "a", 0.9, "b", 0.9),
		cand(1, "a", 0.8),
		cand(2, "b", 0.8),
	}
	val, scheme, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal value: 1.8 (pick task 0) vs 1.6 (tasks 1+2) — task 0 wins on
	// sum objective.
	if math.Abs(val-1.8) > 1e-12 {
		t.Fatalf("optimal value = %v", val)
	}
	if len(scheme) != 1 || scheme[0].Task != 0 {
		t.Fatalf("scheme = %v", scheme)
	}
}

func TestOptimalBeatsGreedyCase(t *testing.T) {
	// Construct a case where greedy is strictly suboptimal: greedy takes
	// the highest-average single, optimal packs two others.
	cands := []CandidateAssignment{
		cand(0, "a", 0.99, "b", 0.5), // avg 0.745, sum 1.49
		cand(1, "a", 0.9),            // avg 0.9 -> greedy takes this first
		cand(2, "b", 0.55),           // then this; total 1.45
	}
	gv := TotalValue(Greedy(cands))
	ov, _, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	if !(ov > gv) {
		t.Fatalf("expected optimal %v > greedy %v", ov, gv)
	}
}

func TestOptimalMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := 2 + rng.Intn(5)
		var cands []CandidateAssignment
		nt := 1 + rng.Intn(10)
		for ti := 0; ti < nt; ti++ {
			k := 1 + rng.Intn(nw)
			perm := rng.Perm(nw)
			var ws []Candidate
			for _, wi := range perm[:k] {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		dp, _, err := Optimal(cands)
		if err != nil {
			return false
		}
		return math.Abs(dp-OptimalEnumerate(cands)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalAtLeastGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []CandidateAssignment
		for ti := 0; ti < 12; ti++ {
			var ws []Candidate
			for j := 0; j <= rng.Intn(3); j++ {
				ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", rng.Intn(8)), Accuracy: rng.Float64()})
			}
			cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
		}
		ov, _, err := Optimal(cands)
		if err != nil {
			return false
		}
		return ov >= TotalValue(Greedy(cands))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSchemeFeasibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cands []CandidateAssignment
	for ti := 0; ti < 25; ti++ {
		var ws []Candidate
		perm := rng.Perm(10)
		for _, wi := range perm[:1+rng.Intn(3)] {
			ws = append(ws, Candidate{Worker: fmt.Sprintf("w%d", wi), Accuracy: rng.Float64()})
		}
		cands = append(cands, CandidateAssignment{Task: ti, Workers: ws})
	}
	val, scheme, err := Optimal(cands)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var sum float64
	for _, a := range scheme {
		for _, w := range a.Workers {
			if used[w.Worker] {
				t.Fatal("optimal scheme reuses a worker")
			}
			used[w.Worker] = true
		}
		sum += a.SumAccuracy()
	}
	if math.Abs(sum-val) > 1e-9 {
		t.Fatalf("scheme value %v != reported %v", sum, val)
	}
}

func TestOptimalTooManyWorkers(t *testing.T) {
	var cands []CandidateAssignment
	for i := 0; i < 31; i++ {
		cands = append(cands, cand(i, fmt.Sprintf("w%d", i), 0.5))
	}
	if _, _, err := Optimal(cands); err != ErrTooManyWorkers {
		t.Fatalf("want ErrTooManyWorkers, got %v", err)
	}
}

func TestPerformanceTest(t *testing.T) {
	e := table1Estimator(t)
	e.EnsureWorker("w", 0.6)
	// Worker has evidence around the iPhone cluster (t1): low uncertainty
	// there. The iPod task (t8 = ID 7) is unexplored: high uncertainty.
	_ = e.ObserveQualification("w", 0, true)
	_ = e.ObserveQualification("w", 5, true)
	type testCand struct {
		task int
		accs []float64 // accuracies of the workers already assigned
	}
	pick := func(cands ...testCand) (int, bool) {
		p := NewTestPick()
		for _, c := range cands {
			var sum float64
			for _, a := range c.accs {
				sum += a
			}
			p.Offer(c.task, e.UncertaintyAt(e.Ordinal("w"), c.task), sum, len(c.accs))
		}
		return p.Best()
	}
	got, ok := pick(
		testCand{3, []float64{0.8, 0.8}}, // iPhone, known region
		testCand{7, []float64{0.8, 0.8}}, // iPod, unknown region
	)
	if !ok || got != 7 {
		t.Fatalf("pick = %d %v, want 7", got, ok)
	}
	// Quality of the existing worker set matters: same uncertainty, higher
	// quality wins.
	got, ok = pick(testCand{7, []float64{0.55}}, testCand{8, []float64{0.95}})
	if !ok || got != 8 {
		t.Fatalf("pick quality tie-break = %d, want 8", got)
	}
	// Equal scores go to the smaller task ID, whatever the offer order.
	got, ok = pick(testCand{9, nil}, testCand{8, []float64{0.5}})
	if !ok || got != 8 {
		t.Fatalf("pick score tie = %d, want 8", got)
	}
	if _, ok := pick(); ok {
		t.Fatal("empty candidate set should report not ok")
	}
	// Tasks with no assigned workers still get the fallback quality.
	got, ok = pick(testCand{9, nil})
	if !ok || got != 9 {
		t.Fatalf("fallback = %d %v", got, ok)
	}
}

func TestSumAvgAccuracy(t *testing.T) {
	a := cand(1, "x", 0.8, "y", 0.6)
	if v := a.SumAccuracy(); math.Abs(v-1.4) > 1e-12 {
		t.Fatalf("sum = %v", v)
	}
	if v := a.AvgAccuracy(); math.Abs(v-0.7) > 1e-12 {
		t.Fatalf("avg = %v", v)
	}
	empty := CandidateAssignment{Task: 0}
	if empty.AvgAccuracy() != 0 {
		t.Fatal("empty avg should be 0")
	}
}
