package main

// Phase names the orchestrator and the generator agree on.
const (
	warmupPhase = "warmup"
	mainPhase   = "main"
)

// assignLatencies returns a phase's /assign latencies, one per arrival,
// with failures as +Inf so they miss every limit.
func assignLatencies(pr *phaseReport) []float64 { return latencies(pr.AssignMs) }

// submitLatencies returns the latencies of the submits a phase issued.
func submitLatencies(pr *phaseReport) []float64 { return latencies(pr.SubmitMs) }

// latencies drops the noSample entries and turns failures into +Inf.
func latencies(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if v == noSample {
			continue
		}
		if v == failedSample {
			v = failedMs
		}
		out = append(out, v)
	}
	return out
}

// failures counts a phase's failed operations: 5xx, 429, other 4xx,
// timeouts and transport errors.
func failures(pr *phaseReport) int {
	return pr.Fail5xx + pr.Fail429 + pr.Fail4xx + pr.FailTimeout + pr.FailNet
}

// attempted counts a phase's operations: every assign and every submit.
func attempted(pr *phaseReport) int {
	return len(pr.AssignMs) + len(latencies(pr.SubmitMs))
}

// assignedShares returns the share of arrivals that got a task, over the
// whole phase and over its first and second halves.
func assignedShares(pr *phaseReport) (all, first, second float64) {
	share := func(xs []bool) float64 {
		if len(xs) == 0 {
			return 0
		}
		n := 0
		for _, x := range xs {
			if x {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	h := len(pr.Assigned) / 2
	return share(pr.Assigned), share(pr.Assigned[:h]), share(pr.Assigned[h:])
}
