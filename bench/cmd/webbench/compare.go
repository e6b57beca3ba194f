package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict compares side b against side a for one metric. A metric whose
// spread on either side is wider than its bound is unresolved; otherwise
// b is worse or better when its median moved past the bound, and within
// the bound when it did not.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within bound"
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict under BENCHMARK.json's bounds.
// It fails only on unreadable input.
func compareFiles(pathA, pathB, benchPath string, stdout, stderr io.Writer) int {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "webbench: %v\n", err)
		return 2
	}
	a, err := readSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readSet(pathB); err == nil {
			writeComparison(stdout, bf.EndToEnd, a.Runs, b.Runs)
			return 0
		}
	}
	fmt.Fprintf(stderr, "webbench: %v\n", err)
	return 2
}

func writeComparison(w io.Writer, defs []metricDef, a, b []*result) {
	fmt.Fprintln(w, "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | change | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, wl := range workloads {
		ra, rb := byWorkload(a, wl.name), byWorkload(b, wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, d := range defs {
			xa, xb := values(ra, d.Name), values(rb, d.Name)
			change := "-"
			if len(xa) > 0 && len(xb) > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(xb)/median(xa)-1))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %g%% | %s |\n",
				wl.name, d.Name, side(xa), side(xb), change, 100*d.Bound, verdict(xa, xb, d.Better, d.Bound))
		}
	}
}

func byWorkload(runs []*result, name string) []*result {
	var out []*result
	for _, r := range runs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}
