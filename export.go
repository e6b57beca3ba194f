package webharmony

import (
	"io"

	"webharmony/internal/core"
)

// WriteJSON serializes any experiment result as indented JSON.
func WriteJSON(w io.Writer, result any) error { return core.WriteJSON(w, result) }

// WriteFigure4CSV writes the Figure 4 cross-workload matrix as CSV.
func WriteFigure4CSV(w io.Writer, res *Figure4Result) error {
	return core.WriteFigure4CSV(w, res)
}

// WriteFigure5CSV writes the Figure 5 responsiveness series as CSV.
func WriteFigure5CSV(w io.Writer, res *Figure5Result) error {
	return core.WriteFigure5CSV(w, res)
}

// WriteTable4CSV writes the Table 4 method comparison as CSV.
func WriteTable4CSV(w io.Writer, res *Table4Result) error {
	return core.WriteTable4CSV(w, res)
}

// WriteTable4ReplicatedCSV writes the replicated Table 4 comparison
// (mean ± σ ± CI per method plus per-replicate WIPS columns) as CSV.
func WriteTable4ReplicatedCSV(w io.Writer, res *Table4Replicated) error {
	return core.WriteTable4ReplicatedCSV(w, res)
}

// WriteFigure4ReplicatedCSV writes the replicated Figure 4 matrix as
// long-form CSV: one row per (configuration, workload) with
// across-replicate mean ± σ ± 95% CI.
func WriteFigure4ReplicatedCSV(w io.Writer, res *Figure4Replicated) error {
	return core.WriteFigure4ReplicatedCSV(w, res)
}

// WriteFigure7CSV writes a Figure 7 reconfiguration run as CSV.
func WriteFigure7CSV(w io.Writer, res *Figure7Result) error {
	return core.WriteFigure7CSV(w, res)
}

// WriteFigure7ReplicatedCSV writes a replicated Figure 7 run as CSV: one
// row per iteration with across-replicate mean ± σ ± 95% CI.
func WriteFigure7ReplicatedCSV(w io.Writer, res *Figure7Replicated) error {
	return core.WriteFigure7ReplicatedCSV(w, res)
}

// WriteSeriesCSV writes an iteration-indexed series as CSV.
func WriteSeriesCSV(w io.Writer, name string, series []float64) error {
	return core.WriteSeriesCSV(w, name, series)
}
