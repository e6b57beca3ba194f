package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"webharmony/internal/rng"
	"webharmony/internal/stats"
	"webharmony/internal/tpcw"
)

// SweepAxis is one knob of a parameter sweep: a name, one label per
// candidate value (used in reports and the long-form CSV) and an Apply
// function that installs the i-th value into a LabConfig. Constructors
// exist for the lab knobs the ROADMAP names (browsers, store scale, think
// time, cluster shape); custom axes just fill the struct.
type SweepAxis struct {
	Name   string
	Labels []string
	Apply  func(cfg *LabConfig, i int)
}

// BrowsersAxis sweeps the emulated-browser population.
func BrowsersAxis(vals ...int) SweepAxis {
	ax := SweepAxis{Name: "browsers"}
	for _, v := range vals {
		ax.Labels = append(ax.Labels, strconv.Itoa(v))
	}
	ax.Apply = func(cfg *LabConfig, i int) { cfg.Browsers = vals[i] }
	return ax
}

// ScaleAxis sweeps the TPC-W store scale (catalog size).
func ScaleAxis(vals ...int) SweepAxis {
	ax := SweepAxis{Name: "scale"}
	for _, v := range vals {
		ax.Labels = append(ax.Labels, strconv.Itoa(v))
	}
	ax.Apply = func(cfg *LabConfig, i int) { cfg.Scale = vals[i] }
	return ax
}

// ThinkAxis sweeps the mean browser think time in seconds.
func ThinkAxis(vals ...float64) SweepAxis {
	ax := SweepAxis{Name: "think"}
	for _, v := range vals {
		ax.Labels = append(ax.Labels, strconv.FormatFloat(v, 'g', -1, 64))
	}
	ax.Apply = func(cfg *LabConfig, i int) { cfg.ThinkMean = vals[i] }
	return ax
}

// ShapeAxis sweeps the cluster shape; each value is proxy/app/db node
// counts, labeled like the Layout strings ("2/2/2").
func ShapeAxis(shapes ...[3]int) SweepAxis {
	ax := SweepAxis{Name: "shape"}
	for _, s := range shapes {
		ax.Labels = append(ax.Labels, fmt.Sprintf("%d/%d/%d", s[0], s[1], s[2]))
	}
	ax.Apply = func(cfg *LabConfig, i int) {
		cfg.ProxyNodes, cfg.AppNodes, cfg.DBNodes = shapes[i][0], shapes[i][1], shapes[i][2]
	}
	return ax
}

// SweepRow is one observation of a sweep: a knob combination (one label
// per axis, in axis order), a replicate index and the measured mean WIPS.
type SweepRow struct {
	Values    []string
	Replicate int
	WIPS      float64
}

// SweepResult is the long-form output of RunSweep: one row per
// (knob-combination, replicate), combinations in row-major axis order
// (last axis fastest) with replicates innermost.
type SweepResult struct {
	Axes       []string
	Workload   tpcw.Workload
	Replicates int
	Iters      int
	Rows       []SweepRow
}

// RunSweep measures the default configuration's WIPS over the full grid
// spanned by axes, with R replicates per knob combination and iters
// measured iterations per replicate, mapping the response surface beyond
// the paper's single operating point. All points fan out over the
// cfg.Workers pool; each builds its own lab, so the result is bit-for-bit
// identical at any worker count.
//
// Replicate r of every combination runs under seed
// rng.TaskSeed(cfg.Seed, r) — the seed depends only on the replicate
// index, not on the combination or the grid, so (a) combinations are
// compared under common random numbers (paired samples, a standard
// simulation variance-reduction technique) and (b) a combination's rows
// are identical no matter which other combinations the grid contains.
func RunSweep(cfg LabConfig, w tpcw.Workload, axes []SweepAxis, R, iters int) *SweepResult {
	if iters < 1 {
		panic("core: RunSweep needs iters >= 1")
	}
	res := &SweepResult{Workload: w, Replicates: R, Iters: iters}
	res.Axes, res.Rows = sweepGrid("RunSweep", cfg, axes, R, func(ccfg LabConfig, values []string, r int) SweepRow {
		wips := stats.MeanOf(NewLab(ccfg, w).MeasureConfig(DefaultConfigs(), iters))
		return SweepRow{Values: values, Replicate: r, WIPS: wips}
	})
	return res
}

// sweepGrid is the grid engine of RunSweep and RunTunedSweep. It checks
// the grid, then computes one row per (combination, replicate) pair over
// the cfg.Workers pool: row k is combination k/R, replicate k%R, with
// combinations in row-major axis order (last axis fastest). unit gets the
// pair's lab configuration — seed rng.TaskSeed(cfg.Seed, r), telemetry
// replicate r, the combination's knob values applied and its telemetry
// unit named after them — and the value labels in axis order. sweepGrid
// returns the axis names and the rows.
func sweepGrid[Row any](who string, cfg LabConfig, axes []SweepAxis, R int, unit func(ccfg LabConfig, values []string, r int) Row) ([]string, []Row) {
	if len(axes) == 0 || R < 1 {
		panic("core: " + who + " needs at least one axis and R >= 1")
	}
	combos := 1
	names := make([]string, len(axes))
	for j, ax := range axes {
		if len(ax.Labels) == 0 {
			panic("core: " + who + " axis " + ax.Name + " has no values")
		}
		combos *= len(ax.Labels)
		names[j] = ax.Name
	}
	rows := make([]Row, combos*R)
	ForEach(cfg.Workers, combos*R, func(k int) {
		combo, r := k/R, k%R
		ccfg := cfg
		ccfg.Seed = rng.TaskSeed(cfg.Seed, uint64(r))
		ccfg.TelemetryReplicate = r
		values := make([]string, len(axes))
		// Decode the combination index digit by digit, last axis fastest.
		c := combo
		for j := len(axes) - 1; j >= 0; j-- {
			i := c % len(axes[j].Labels)
			c /= len(axes[j].Labels)
			axes[j].Apply(&ccfg, i)
			values[j] = axes[j].Labels[i]
		}
		rows[k] = unit(telemetrySub(ccfg, comboName(axes, values)), values, r)
	})
	return names, rows
}

// comboName renders one grid point as a telemetry unit segment,
// "axis=label" pairs joined with ";" — commas would break the metrics CSV,
// whose unit column is unquoted.
func comboName(axes []SweepAxis, values []string) string {
	parts := make([]string, len(axes))
	for j, ax := range axes {
		parts[j] = ax.Name + "=" + values[j]
	}
	return strings.Join(parts, ";")
}

// ParseSweepSpec parses a compact sweep-grid description into axes. The
// grammar is semicolon-separated axes, each "name=v1,v2,...":
//
//	browsers=140,250;think=0.3,0.6;shape=1/1/1,2/2/2
//
// Supported axis names are browsers, scale, think and shape (shape values
// are proxy/app/db counts). It is the format of webtune's -sweep flag.
func ParseSweepSpec(spec string) ([]SweepAxis, error) {
	var axes []SweepAxis
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, list, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.TrimSpace(list) == "" {
			return nil, fmt.Errorf("sweep: bad axis %q (want name=v1,v2,...)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", name)
		}
		seen[name] = true
		vals := strings.Split(list, ",")
		switch name {
		case "browsers", "scale":
			var ints []int
			for _, v := range vals {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("sweep: bad %s value %q", name, v)
				}
				ints = append(ints, n)
			}
			if name == "browsers" {
				axes = append(axes, BrowsersAxis(ints...))
			} else {
				axes = append(axes, ScaleAxis(ints...))
			}
		case "think":
			var fs []float64
			for _, v := range vals {
				x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				// Reject non-finite values explicitly: NaN compares false
				// against everything (so it would slip past x <= 0) and a
				// +Inf think time would wedge the simulation.
				if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
					return nil, fmt.Errorf("sweep: bad think value %q", v)
				}
				fs = append(fs, x)
			}
			axes = append(axes, ThinkAxis(fs...))
		case "shape":
			var shapes [][3]int
			for _, v := range vals {
				fields := strings.Split(strings.TrimSpace(v), "/")
				if len(fields) != 3 {
					return nil, fmt.Errorf("sweep: bad shape %q (want proxy/app/db)", v)
				}
				var s [3]int
				for i, f := range fields {
					n, err := strconv.Atoi(f)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("sweep: bad shape %q (want proxy/app/db)", v)
					}
					s[i] = n
				}
				shapes = append(shapes, s)
			}
			axes = append(axes, ShapeAxis(shapes...))
		default:
			return nil, fmt.Errorf("sweep: unknown axis %q (have browsers, scale, think, shape)", name)
		}
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("sweep: empty spec")
	}
	return axes, nil
}
