package webharmony

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"webharmony/internal/cluster"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
	"webharmony/internal/websim"
)

// PrintTable1 renders the TPC-W workload mixes (Table 1).
func PrintTable1(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Web Interaction\tBrowsing (WIPSb)\tShopping (WIPS)\tOrdering (WIPSo)")
	mixes := map[Workload][tpcw.NumInteractions]float64{}
	for _, wl := range Workloads() {
		mixes[wl] = tpcw.Mix(wl)
	}
	for i := 0; i < tpcw.NumInteractions; i++ {
		fmt.Fprintf(tw, "%s\t%.2f %%\t%.2f %%\t%.2f %%\n",
			tpcw.Interaction(i),
			mixes[Browsing][i], mixes[Shopping][i], mixes[Ordering][i])
	}
	tw.Flush()
}

// PrintSection3A renders the §III.A statistics of a single-workload run.
func PrintSection3A(w io.Writer, res *SingleWorkloadResult) {
	base := stats.MeanOf(res.Baseline)
	fmt.Fprintf(w, "Workload: %v\n", res.Workload)
	fmt.Fprintf(w, "  default configuration: %.1f WIPS (σ %.1f over %d iterations)\n",
		base, stats.StdDevOf(res.Baseline), len(res.Baseline))
	fmt.Fprintf(w, "  best tuned:            %.1f WIPS\n", res.BestWIPS)
	fmt.Fprintf(w, "  second-half average improvement: %+.1f%%  (paper: browsing +3%%, ordering up to +5%%)\n",
		100*res.AvgImprovement)
	fmt.Fprintf(w, "  second-half iterations beating default: %.0f%%  (paper: 78%% browsing, 85%% ordering)\n",
		100*res.FracBetter)
}

// PrintFigure4 renders the cross-workload matrix and improvement table.
func PrintFigure4(w io.Writer, res *Figure4Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WIPS\trun: browsing\trun: shopping\trun: ordering")
	fmt.Fprintf(tw, "default config\t%.1f\t%.1f\t%.1f\n",
		res.Default[Browsing], res.Default[Shopping], res.Default[Ordering])
	for _, from := range Workloads() {
		fmt.Fprintf(tw, "best-of-%v\t%.1f\t%.1f\t%.1f\n", from,
			res.Matrix[from][Browsing], res.Matrix[from][Shopping], res.Matrix[from][Ordering])
	}
	tw.Flush()
	fmt.Fprintf(w, "Improvement of native tuned config over default (paper: 15%% / 16%% / 5%%):\n")
	fmt.Fprintf(w, "  browsing %+.1f%%, shopping %+.1f%%, ordering %+.1f%%\n",
		100*res.Improvement[Browsing], 100*res.Improvement[Shopping], 100*res.Improvement[Ordering])
}

// PrintFigure4Replicated renders the cross-workload matrix with every
// cell summarized across replicates: mean ± σ (±95% CI).
func PrintFigure4Replicated(w io.Writer, res *Figure4Replicated) {
	cell := func(s stats.Summary) string {
		return fmt.Sprintf("%.1f ± %.1f (±%.1f)", s.Mean, s.StdDev, s.CI95)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WIPS mean ± σ (±95% CI)\trun: browsing\trun: shopping\trun: ordering")
	fmt.Fprintf(tw, "default config\t%s\t%s\t%s\n",
		cell(res.Default[Browsing]), cell(res.Default[Shopping]), cell(res.Default[Ordering]))
	for _, from := range Workloads() {
		fmt.Fprintf(tw, "best-of-%v\t%s\t%s\t%s\n", from,
			cell(res.Matrix[from][Browsing]), cell(res.Matrix[from][Shopping]), cell(res.Matrix[from][Ordering]))
	}
	tw.Flush()
	fmt.Fprintf(w, "Improvement of native tuned config over default, across %d replicates (paper: 15%% / 16%% / 5%%):\n",
		res.Replicates)
	for _, wl := range Workloads() {
		s := res.Improvement[wl]
		fmt.Fprintf(w, "  %v %+.1f%% ± %.1f%% (95%% CI ±%.1f%%)\n",
			wl, 100*s.Mean, 100*s.StdDev, 100*s.CI95)
	}
}

// PrintTable3 renders the tuned parameter values per workload (Table 3).
func PrintTable3(w io.Writer, res *Figure4Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tunable parameter\tDefault\tBrowsing\tShopping\tOrdering")
	for _, tier := range cluster.Tiers() {
		sp := websim.SpaceFor(tier)
		fmt.Fprintf(tw, "[%v server]\t\t\t\t\n", tier)
		for i, def := range sp.Defs() {
			fmt.Fprintf(tw, "%s\t%d", def.Name, def.Default)
			for _, wl := range Workloads() {
				cfg := res.Best[wl][tier]
				if cfg == nil {
					fmt.Fprintf(tw, "\t-")
					continue
				}
				fmt.Fprintf(tw, "\t%d", cfg[i])
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// PrintFigure5 renders the responsiveness run: the WIPS series with the
// workload phases and per-switch recovery.
func PrintFigure5(w io.Writer, res *Figure5Result) {
	fmt.Fprintf(w, "iteration\tworkload\tWIPS\n")
	for i, v := range res.WIPS {
		mark := ""
		for _, sw := range res.Switches {
			if i == sw {
				mark = "  <- workload change"
			}
		}
		fmt.Fprintf(w, "%d\t%v\t%.1f%s\n", i+1, res.Workload[i], v, mark)
	}
	fmt.Fprintf(w, "recovery after each switch (iterations to reach 90%% of steady WIPS): %v\n", res.Recovery)
	fmt.Fprintf(w, "tuning-session restarts triggered by shift detection: %d\n", res.Restarts)
}

// PrintTable4 renders the cluster tuning method comparison.
func PrintTable4(w io.Writer, res *Table4Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tuning method\tWIPS\tStd dev\tImprovement\tIterations")
	for _, r := range res.Rows {
		imp := "-"
		if r.Improvement != 0 {
			imp = fmt.Sprintf("%.1f%%", 100*r.Improvement)
		}
		iters := "-"
		if r.Iterations > 0 {
			iters = fmt.Sprintf("%d", r.Iterations)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%s\t%s\n", r.Method, r.WIPS, r.StdDev, imp, iters)
	}
	tw.Flush()
	fmt.Fprintln(w, "(paper: none 110.4/σ2.1; default 130.6/σ30.0/159 it; duplication 133.7/σ29.5/33 it; partitioning 131.3/σ9.7/107 it)")
}

// PrintTable4Replicated renders the cluster tuning method comparison with
// across-replicate statistics: mean ± σ and a 95% confidence interval
// over R independent replicates per method.
func PrintTable4Replicated(w io.Writer, res *Table4Replicated) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tuning method\tMean WIPS\tStd dev\t95% CI\tImprovement\tIterations")
	for _, r := range res.Rows {
		imp := "-"
		if r.Improvement != 0 {
			imp = fmt.Sprintf("%.1f%%", 100*r.Improvement)
		}
		iters := "-"
		if r.Iterations > 0 {
			iters = fmt.Sprintf("%d", r.Iterations)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t±%.1f\t%s\t%s\n", r.Method, r.Mean, r.StdDev, r.CI95, imp, iters)
	}
	tw.Flush()
	fmt.Fprintf(w, "(%d replicates per method; σ and CI are across replicates, not within a run)\n", res.Replicates)
	fmt.Fprintln(w, "(paper: none 110.4/σ2.1; default 130.6/σ30.0/159 it; duplication 133.7/σ29.5/33 it; partitioning 131.3/σ9.7/107 it)")
}

// PrintFigure7Replicated renders a replicated reconfiguration run: the
// per-iteration WIPS summarized across replicates and the before/after
// jump over the replicates that reconfigured.
func PrintFigure7Replicated(w io.Writer, res *Figure7Replicated) {
	fmt.Fprintf(w, "iteration\tmean WIPS\tσ\t95%% CI\n")
	for i, s := range res.WIPS {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t±%.1f\n", i+1, s.Mean, s.StdDev, s.CI95)
	}
	fmt.Fprintf(w, "replicates that reconfigured: %d of %d\n", res.Moved, res.Replicates)
	for r, d := range res.Decisions {
		if d != "" {
			fmt.Fprintf(w, "  replicate %d: %s\n", r, d)
		}
	}
	if res.Moved > 0 {
		fmt.Fprintf(w, "throughput before move: %.1f ± %.1f WIPS, after: %.1f ± %.1f WIPS (%+.0f%% ±%.0f%%; paper: +62%%/+70%%)\n",
			res.Before.Mean, res.Before.StdDev, res.After.Mean, res.After.StdDev,
			100*res.Improvement.Mean, 100*res.Improvement.CI95)
	} else {
		fmt.Fprintln(w, "no replicate triggered a reconfiguration")
	}
}

// PrintFigure7 renders a reconfiguration run.
func PrintFigure7(w io.Writer, res *Figure7Result) {
	fmt.Fprintf(w, "iteration\tlayout\tWIPS\n")
	for i, v := range res.WIPS {
		mark := ""
		if i == res.MovedAt {
			mark = "  <- reconfiguration: " + res.Decision.String()
		}
		fmt.Fprintf(w, "%d\t%s\t%.1f%s\n", i+1, res.Layouts[i], v, mark)
	}
	if res.Moved {
		fmt.Fprintf(w, "throughput before move: %.1f WIPS, after: %.1f WIPS (%+.0f%%; paper: +62%%/+70%%)\n",
			res.Before, res.After, 100*res.Improvement)
	} else {
		fmt.Fprintln(w, "no reconfiguration was triggered")
	}
}

// PrintConfig renders a tier configuration as sorted name=value pairs.
func PrintConfig(w io.Writer, tier string, values map[string]int64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "[%s]\n", tier)
	for _, n := range names {
		fmt.Fprintf(w, "  %s = %d\n", n, values[n])
	}
}
