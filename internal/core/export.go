package core

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// WriteJSON serializes any experiment result as indented JSON.
func WriteJSON(w io.Writer, result any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(result)
}

// WriteSeriesCSV writes an iteration-indexed series with the given value
// column name.
func WriteSeriesCSV(w io.Writer, name string, series []float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", name}); err != nil {
		return err
	}
	for i, v := range series {
		if err := cw.Write([]string{strconv.Itoa(i + 1), formatFloat(v)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure5CSV writes the responsiveness run as iteration, workload,
// WIPS rows.
func WriteFigure5CSV(w io.Writer, res *Figure5Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", "workload", "wips"}); err != nil {
		return err
	}
	for i, v := range res.WIPS {
		if err := cw.Write([]string{
			strconv.Itoa(i + 1), res.Workload[i].String(), formatFloat(v),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure7CSV writes a reconfiguration run as iteration, layout, WIPS
// rows with the move marked.
func WriteFigure7CSV(w io.Writer, res *Figure7Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", "layout", "wips", "event"}); err != nil {
		return err
	}
	for i, v := range res.WIPS {
		event := ""
		if i == res.MovedAt {
			event = res.Decision.String()
		}
		if err := cw.Write([]string{
			strconv.Itoa(i + 1), res.Layouts[i], formatFloat(v), event,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4CSV writes the cross-workload matrix.
func WriteFigure4CSV(w io.Writer, res *Figure4Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "browsing", "shopping", "ordering"}); err != nil {
		return err
	}
	row := func(name string, vals [3]float64) error {
		return cw.Write([]string{name,
			formatFloat(vals[0]), formatFloat(vals[1]), formatFloat(vals[2])})
	}
	if err := row("default", res.Default); err != nil {
		return err
	}
	for _, from := range tpcw.Workloads() {
		if err := row("best-of-"+from.String(), res.Matrix[from]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4CSV writes the cluster tuning method comparison.
func WriteTable4CSV(w io.Writer, res *Table4Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"method", "wips", "stddev", "improvement", "iterations"}); err != nil {
		return err
	}
	for _, r := range res.Rows {
		if err := cw.Write([]string{
			r.Method, formatFloat(r.WIPS), formatFloat(r.StdDev),
			formatFloat(r.Improvement), strconv.Itoa(r.Iterations),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4ReplicatedCSV writes the replicated cluster tuning method
// comparison: per-method mean ± σ and 95% CI across replicates, plus the
// per-replicate WIPS in long form (one trailing column per replicate).
func WriteTable4ReplicatedCSV(w io.Writer, res *Table4Replicated) error {
	cw := csv.NewWriter(w)
	header := []string{"method", "mean_wips", "stddev", "ci95", "improvement", "iterations"}
	for r := 0; r < res.Replicates; r++ {
		header = append(header, "wips_r"+strconv.Itoa(r))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range res.Rows {
		rec := []string{
			row.Method, formatFloat(row.Mean), formatFloat(row.StdDev),
			formatFloat(row.CI95), formatFloat(row.Improvement),
			strconv.Itoa(row.Iterations),
		}
		for _, v := range row.WIPS {
			rec = append(rec, formatFloat(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4ReplicatedCSV writes the replicated cross-workload matrix
// in long form: one row per (configuration, workload) cell with its
// across-replicate mean ± σ ± 95% CI; native cells additionally carry the
// summarized improvement over the default configuration.
func WriteFigure4ReplicatedCSV(w io.Writer, res *Figure4Replicated) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "workload",
		"mean_wips", "sd_wips", "ci95_wips",
		"mean_native_improvement", "ci95_native_improvement"}); err != nil {
		return err
	}
	row := func(name string, on tpcw.Workload, s, imp *stats.Summary) error {
		rec := []string{name, on.String(),
			formatFloat(s.Mean), formatFloat(s.StdDev), formatFloat(s.CI95), "", ""}
		if imp != nil {
			rec[5], rec[6] = formatFloat(imp.Mean), formatFloat(imp.CI95)
		}
		return cw.Write(rec)
	}
	for _, on := range tpcw.Workloads() {
		if err := row("default", on, &res.Default[on], nil); err != nil {
			return err
		}
	}
	for _, from := range tpcw.Workloads() {
		for _, on := range tpcw.Workloads() {
			var imp *stats.Summary
			if from == on {
				imp = &res.Improvement[on]
			}
			if err := row("best-of-"+from.String(), on, &res.Matrix[from][on], imp); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure7ReplicatedCSV writes a replicated reconfiguration run as
// one row per iteration with the across-replicate mean ± σ ± 95% CI.
func WriteFigure7ReplicatedCSV(w io.Writer, res *Figure7Replicated) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", "mean_wips", "sd_wips", "ci95_wips"}); err != nil {
		return err
	}
	for i, s := range res.WIPS {
		if err := cw.Write([]string{strconv.Itoa(i + 1),
			formatFloat(s.Mean), formatFloat(s.StdDev), formatFloat(s.CI95)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
