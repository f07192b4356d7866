package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"livenas/internal/vidgen"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measure starts its calibration child (os.Executable is the test binary).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--calibrate" {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchSpec is the part of ../BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyWorkload is the named workload shrunk to a fraction of a second.
func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	switch name {
	case "ingest":
		return &sessionWorkload{cat: vidgen.JustChatting, channels: 6, metricEvery: time.Second,
			duration: 3 * time.Second, warmDur: time.Second, k: 1}
	case "enhance":
		return &sessionWorkload{cat: vidgen.Fortnite, channels: 16, metricEvery: 100 * time.Millisecond,
			duration: 2 * time.Second, warmDur: time.Second, k: 1}
	case "edge":
		return &edgeWorkload{viewers: 20, segments: 3, fanout: 8, k: 1}
	}
	t.Fatalf("BENCHMARK.json names unknown workload %q", name)
	return nil
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }, nonzero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case nonzero && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", w.Name, m.Value)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	ctx := context.Background()
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			o := options{workload: wl.Name, seed: 3, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rep, detail, err := measure(ctx, tinyWorkload(t, wl.Name), o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("untraced run: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep.Metrics, spec.EndToEnd, true)

			again, detail2, err := measure(ctx, tinyWorkload(t, wl.Name), o)
			if err != nil {
				t.Fatal(err)
			}
			if detail["digest"] != detail2["digest"] || !again.Correct {
				t.Errorf("same seed, digests %v and %v", detail["digest"], detail2["digest"])
			}

			rep, _, err = traced(ctx, tinyWorkload(t, wl.Name), o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("traced run: %d of %d failed", rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep.Metrics, spec.PerLayer, false)
			if rep.Metrics["trace.coverage_frac"].Value <= 0 {
				t.Error("traced run reports no replay coverage")
			}
			if _, err := os.Stat(o.traceOut); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

func TestSummariseTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	d := summarise(xs)
	// 90 has exactly ten samples above it.
	if d.N != 100 || d.Median != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Errorf("summarise(1..100) = %+v", d)
	}
	d = summarise(xs[:15])
	if d.Tail != 15 || d.TailPct != 100 {
		t.Errorf("summarise(1..15) = %+v, want the maximum", d)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 10 * time.Microsecond},
		{name: "a", parent: 0, start: 1 * time.Microsecond, end: 4 * time.Microsecond},
		{name: "b", parent: 0, start: 5 * time.Microsecond, end: 9 * time.Microsecond},
		{name: "c", parent: 2, start: 6 * time.Microsecond, end: 7 * time.Microsecond},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"root": 3, "a": 3, "b": 3, "c": 1} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v us", name, got, want)
		}
	}
}
