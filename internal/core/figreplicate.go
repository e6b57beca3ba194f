package core

import (
	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// Figure4Replicated is the cross-workload configuration matrix of
// Figure 4 with every cell summarized across R independent replicates.
type Figure4Replicated struct {
	Replicates int
	// Matrix[i][j] summarizes, across replicates, the WIPS of workload j
	// running under the configuration tuned for workload i.
	Matrix [3][3]stats.Summary
	// Default[j] summarizes workload j's default-configuration WIPS.
	Default [3]stats.Summary
	// Improvement[j] summarizes the per-replicate native improvement
	// (Matrix[j][j] vs Default[j], the table under Figure 4).
	Improvement [3]stats.Summary
}

// RunFigure4Replicated reruns the Figure 4 cross-workload experiment R
// times, each replicate on labs and tuners seeded from ReplicateSeed, and
// reports mean ± σ and a Student-t 95% confidence interval per matrix
// cell across the replicates. The R replicates (each itself a parallel
// Figure 4 run) fan out over cfg.Workers; output is bit-for-bit identical
// at any worker count.
func RunFigure4Replicated(cfg LabConfig, iters, evalIters, R int, opts harmony.Options) *Figure4Replicated {
	if R < 1 {
		panic("core: RunFigure4Replicated needs R >= 1")
	}
	runs := Replicate(cfg, R, func(rcfg LabConfig, r int) *Figure4Result {
		ropts := opts
		ropts.Seed = ReplicateSeed(opts.Seed, r)
		return RunFigure4(rcfg, iters, evalIters, ropts)
	})

	res := &Figure4Replicated{Replicates: R}
	vals := make([]float64, R)
	for _, from := range tpcw.Workloads() {
		for _, on := range tpcw.Workloads() {
			for r, run := range runs {
				vals[r] = run.Matrix[from][on]
			}
			res.Matrix[from][on] = stats.Summarize(vals)
		}
	}
	for _, w := range tpcw.Workloads() {
		for r, run := range runs {
			vals[r] = run.Default[w]
		}
		res.Default[w] = stats.Summarize(vals)
		for r, run := range runs {
			vals[r] = run.Improvement[w]
		}
		res.Improvement[w] = stats.Summarize(vals)
	}
	return res
}

// Figure7Replicated is a reconfiguration experiment (Figure 7) with R
// independent replicates: the per-iteration WIPS summarized across
// replicates plus the before/after comparison over the replicates whose
// reconfiguration check fired.
type Figure7Replicated struct {
	Replicates int
	Options    Figure7Options
	// WIPS[i] summarizes iteration i's WIPS across replicates.
	WIPS []stats.Summary
	// Decisions[r] is replicate r's reconfiguration decision, or "" when
	// that replicate never moved a node; Moved counts the non-empty ones.
	Decisions []string
	Moved     int
	// Before, After and Improvement summarize the pre-/post-move windows
	// across the replicates that moved (all zeros when none did).
	Before      stats.Summary
	After       stats.Summary
	Improvement stats.Summary
}

// RunFigure7Replicated reruns a Figure 7 reconfiguration experiment R
// times on independently seeded labs (replicate r under seed
// ReplicateSeed(cfg.Seed, r)) and reports mean ± σ and a Student-t 95%
// confidence interval per iteration, plus the before/after jump across
// the replicates that reconfigured. The replicates fan out over
// cfg.Workers; output is bit-for-bit identical at any worker count.
func RunFigure7Replicated(cfg LabConfig, fo Figure7Options, R int) *Figure7Replicated {
	if R < 1 {
		panic("core: RunFigure7Replicated needs R >= 1")
	}
	runs := Replicate(cfg, R, func(rcfg LabConfig, r int) *Figure7Result {
		return RunFigure7(rcfg, fo)
	})

	res := &Figure7Replicated{Replicates: R, Options: fo}
	res.WIPS = make([]stats.Summary, fo.Total)
	vals := make([]float64, R)
	for i := 0; i < fo.Total; i++ {
		for r, run := range runs {
			vals[r] = run.WIPS[i]
		}
		res.WIPS[i] = stats.Summarize(vals)
	}
	var before, after, improvement []float64
	for _, run := range runs {
		d := ""
		if run.Moved {
			d = run.Decision.String()
			before = append(before, run.Before)
			after = append(after, run.After)
			improvement = append(improvement, run.Improvement)
		}
		res.Decisions = append(res.Decisions, d)
	}
	res.Moved = len(before)
	res.Before = stats.Summarize(before)
	res.After = stats.Summarize(after)
	res.Improvement = stats.Summarize(improvement)
	return res
}
