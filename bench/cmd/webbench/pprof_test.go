package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestDecodeProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.count
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Fatalf("%d samples, %d in spinForProfile; want most of them", total, spin)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without an error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"webharmony/internal/simnet.(*Engine).RunUntil": "webharmony/internal/simnet",
		"math.Exp":                            "math",
		"encoding/json.(*decodeState).object": "encoding/json",
		"slices.SortFunc[go.shape.[]encoding/json.reflectWithString]": "slices",
		"internal/runtime/syscall.Syscall6":                           "internal/runtime/syscall",
		"aeshashbody":                                                 "aeshashbody",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileSharesAttributeSelfTimeAndAccounting(t *testing.T) {
	stack := func(s string) []string { return strings.Split(s, " ") }
	samples := []stackSample{
		// Self time in simnet, under MeasureIteration inside the cache's compute.
		{stack("webharmony/internal/simnet.(*Engine).RunUntil webharmony/internal/core.(*Lab).MeasureIteration webharmony/internal/core.(*Lab).EvalConfig.func1 webharmony/internal/evalcache.(*Cache).Do main.main"), 6},
		// math under the lab build.
		{stack("math.Exp webharmony/internal/core.NewLab webharmony/internal/evalcache.(*Cache).Do"), 1},
		// Cache key code outside compute.
		{stack("runtime.mallocgc webharmony/internal/evalcache.Spec.Key webharmony/internal/core.(*Lab).EvalConfig"), 1},
		// A GC worker, and an assist inside the simulation.
		{stack("runtime.scanobject runtime.gcBgMarkWorker"), 1},
		{stack("runtime.gcDrain runtime.gcAssistAlloc runtime.mallocgc webharmony/internal/core.(*Lab).MeasureIteration"), 1},
		// Nothing on the list.
		{stack("internal/runtime/syscall.Syscall6 net.(*conn).Read"), 2},
		{nil, 3},
	}
	cpu, acct, total := profileShares(samples)
	if total != 15 {
		t.Fatalf("total %d, want 15", total)
	}
	want := map[string]float64{"simnet": 6, "math": 1, "runtime": 3, "net": 2, "other": 3}
	for k, v := range cpu {
		if math.Abs(v-100*want[k]/15) > 1e-9 {
			t.Errorf("cpu.%s = %g%%, want %g%%", k, v, 100*want[k]/15)
		}
	}
	wantAcct := map[string]float64{"simulate": 6, "build": 1, "cache": 1, "gc": 2, "other": 5}
	var sum float64
	for _, c := range acctClasses {
		sum += acct[c]
		if math.Abs(acct[c]-100*wantAcct[c]/15) > 1e-9 {
			t.Errorf("acct.%s = %g%%, want %g%%", c, acct[c], 100*wantAcct[c]/15)
		}
	}
	if len(acct) != len(acctClasses) || math.Abs(sum-100) > 1e-9 {
		t.Errorf("acct shares %v sum to %g", acct, sum)
	}
	if len(cpu) != len(cpuPackages)+1 {
		t.Errorf("cpu shares cover %d buckets, want %d", len(cpu), len(cpuPackages)+1)
	}
}
