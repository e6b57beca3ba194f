package core

import (
	"webharmony/internal/harmony"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// runFigure5 runs Figure 5 through drive at the given lookahead: a
// duplication strategy tuned over phases phases of phaseLen iterations,
// cycling through seq.
func runFigure5(cfg LabConfig, seq []tpcw.Workload, phaseLen, phases, lookahead int, opts harmony.Options) (*Figure5Result, *harmony.Strategy) {
	if len(seq) == 0 || phaseLen <= 0 || phases <= 0 {
		panic("core: bad Figure 5 arguments")
	}
	res := &Figure5Result{PhaseLen: phaseLen}
	ws := make([]tpcw.Workload, phases)
	for p := range ws {
		ws[p] = seq[p%len(seq)]
		if p > 0 {
			res.Switches = append(res.Switches, p*phaseLen)
		}
		for i := 0; i < phaseLen; i++ {
			res.Workload = append(res.Workload, ws[p])
		}
	}
	st := drive(cfg, harmony.StrategyDuplication, 0, opts, ws, phaseLen, lookahead)
	res.WIPS = st.Perf()
	for _, sess := range st.Sessions() {
		res.Restarts += sess.Resets()
	}
	res.Recovery = recoveryIters(res.WIPS, res.Switches, phaseLen)
	return res, st
}

// RecoveryNone in a Figure5Result.Recovery entry marks a phase whose WIPS
// never re-entered the 90% steady band (or a switch past the end of a
// truncated series, where no recovery can be observed at all).
const RecoveryNone = -1

// recoveryIters computes, for each workload switch, how many iterations
// the phase needed to first re-reach 90% of its steady level (the mean of
// the phase's second half) — the paper's Figure 5 responsiveness metric.
// A switch at or past the end of the series, or a phase that never
// re-enters the band (possible when the steady level is NaN over an
// empty tail, or with anomalous series), yields RecoveryNone rather than
// a value indistinguishable from "recovered on the last iteration".
func recoveryIters(wips []float64, switches []int, phaseLen int) []int {
	var out []int
	for _, sw := range switches {
		rec := RecoveryNone
		if sw >= 0 && sw < len(wips) {
			phase := wips[sw:min(sw+phaseLen, len(wips))]
			steady := stats.MeanOf(phase[len(phase)/2:])
			for i, v := range phase {
				if v >= 0.9*steady {
					rec = i + 1
					break
				}
			}
		}
		out = append(out, rec)
	}
	return out
}
