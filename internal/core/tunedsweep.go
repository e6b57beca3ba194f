package core

import (
	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// TunedSweepRow is one paired observation of a tuned sweep: a knob
// combination, a replicate index, the default configuration's mean WIPS,
// the tuned configuration's mean WIPS on an identically seeded lab, and
// the absolute/relative gain of tuning.
type TunedSweepRow struct {
	Values      []string
	Replicate   int
	DefaultWIPS float64
	TunedWIPS   float64
	// Gain is TunedWIPS − DefaultWIPS; RelGain is Gain/DefaultWIPS (0.05
	// for a 5% gain). Both arms of a replicate share a seed (common
	// random numbers), so the gain is a paired difference.
	Gain    float64
	RelGain float64
}

// TunedSweepCell aggregates one knob combination across its replicates:
// mean ± σ ± Student-t 95% CI for the default arm, the tuned arm, and the
// paired gain (absolute and relative).
type TunedSweepCell struct {
	Values  []string
	Default stats.Summary
	Tuned   stats.Summary
	// Gain and RelGain are paired-t summaries of the per-replicate
	// differences — the variance-reduced comparison common random
	// numbers buy. A Gain interval excluding zero means tuning pays (or
	// costs) significantly at this grid point.
	Gain    stats.Summary
	RelGain stats.Summary
}

// TunedSweepResult is the output of RunTunedSweep: long-form paired rows
// (combinations row-major, last axis fastest, replicates innermost) plus
// one aggregated cell per combination in the same order — the repo's
// answer to "where does tuning pay most?".
type TunedSweepResult struct {
	Axes       []string
	Workload   tpcw.Workload
	Replicates int
	// Iters is the measured iterations per arm evaluation; TuneIters is
	// the tuning-session length per replicate.
	Iters     int
	TuneIters int
	Rows      []TunedSweepRow
	Cells     []TunedSweepCell
}

// RunTunedSweep maps where tuning pays across the grid spanned by axes:
// for every knob combination it runs R replicated tuning sessions
// alongside R default-configuration replicates and reports the paired
// gain per cell. Replicate r of a combination runs the §III.A procedure
// under seed rng.TaskSeed(cfg.Seed, r): measure the default configuration
// for iters iterations, tune for tuneIters iterations with a tuner seeded
// ReplicateSeed(opts.Seed, r), then evaluate the best configuration for
// iters iterations on a fresh, identically seeded lab. The default arm is
// computed exactly as RunSweep computes it, so a tuned sweep's
// DefaultWIPS column reproduces RunSweep's wips column bit-for-bit.
//
// Seeds depend only on the replicate index — never on the combination,
// the grid, R or the worker count — so combinations are compared under
// common random numbers and a cell's numbers are independent of which
// other cells the grid contains. All combos×R units fan out over the
// cfg.Workers pool; each builds its own labs, so the result is
// bit-for-bit identical at any worker count.
func RunTunedSweep(cfg LabConfig, w tpcw.Workload, axes []SweepAxis, R, iters, tuneIters int, opts harmony.Options) *TunedSweepResult {
	if iters < 1 || tuneIters < 1 {
		panic("core: RunTunedSweep needs iters >= 1 and tuneIters >= 1")
	}
	res := &TunedSweepResult{
		Workload: w, Replicates: R, Iters: iters, TuneIters: tuneIters,
	}
	res.Axes, res.Rows = sweepGrid("RunTunedSweep", cfg, axes, R, func(ccfg LabConfig, values []string, r int) TunedSweepRow {
		ropts := opts
		ropts.Seed = ReplicateSeed(opts.Seed, r)
		// TuneWorkload measures the default configuration (the baseline
		// arm, identical to RunSweep's procedure) and runs the tuning
		// session; the best configuration is then evaluated on a fresh
		// lab under the same seed so both arms see the same randomness.
		run := TuneWorkload(ccfg, w, tuneIters, iters, ropts)
		def := stats.MeanOf(run.Baseline)
		eval := NewLab(telemetrySub(ccfg, "eval"), w)
		tuned := stats.MeanOf(eval.MeasureConfig(run.BestConfigs, iters))
		return TunedSweepRow{
			Values:      values,
			Replicate:   r,
			DefaultWIPS: def,
			TunedWIPS:   tuned,
			Gain:        tuned - def,
			RelGain:     stats.Improvement(def, tuned),
		}
	})

	combos := len(res.Rows) / R
	res.Cells = make([]TunedSweepCell, combos)
	for c := 0; c < combos; c++ {
		defs := make([]float64, R)
		tuneds := make([]float64, R)
		rels := make([]float64, R)
		for r := 0; r < R; r++ {
			row := res.Rows[c*R+r]
			defs[r], tuneds[r], rels[r] = row.DefaultWIPS, row.TunedWIPS, row.RelGain
		}
		res.Cells[c] = TunedSweepCell{
			Values:  res.Rows[c*R].Values,
			Default: stats.Summarize(defs),
			Tuned:   stats.Summarize(tuneds),
			Gain:    stats.SummarizePaired(defs, tuneds),
			RelGain: stats.Summarize(rels),
		}
	}
	return res
}
