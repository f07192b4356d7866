// Command bench-compare is the gate over the component and plan
// benchmarks: the committed BENCH_*.json records (format in
// internal/benchrec). The end-to-end benchmark is perfbench/; these records
// pin the pieces underneath it — kernel-vs-ref speedups, the serial-vs-
// parallel speedups of the sweep, fleet and edge plans, their virtual-time
// pins, and the vet engine's cache.
//
// For each baseline record it re-measures the record by running the
// record's own regen argv (from the record's directory, into a temp file),
// then gates every baseline entry by its kind:
//
//	ratio  current >= baseline*(1-threshold)
//	cores  ratio with the baseline capped at this host's core count;
//	       skipped on a single-core host, where a speedup is unmeasurable
//	min    current >= the entry's floor, whatever the baseline
//	exact  current == baseline: simulated time and counts are identical
//	       on every host, so a mismatch means the plan itself changed
//	none   reported only
//
// Every ratio, cores and min figure is a ratio of two timings taken in one
// process, so host speed cancels and a laptop run validates against a
// baseline recorded elsewhere. Wall-clock runs are still noisy, so a failing record is
// re-measured up to -retries more times, keeping the best value per entry.
// Exact entries are re-checked on every run: one mismatch fails the gate.
// A baseline entry missing from the current record always fails.
//
// Usage:
//
//	bench-compare BENCH_kernels.json BENCH_sweep.json  # re-measure and gate each
//	bench-compare -current out.json BENCH_fleet.json    # gate a pre-recorded record
//	bench-compare -threshold 0.25 BENCH_edge.json       # custom noise allowance (or env BENCH_NOISE)
//	bench-compare -summary run.json                     # instead: validate a telemetry run-summary file
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"livenas/internal/benchrec"
	"livenas/internal/telemetry"
)

func main() {
	var (
		current   = flag.String("current", "", "pre-recorded record to gate instead of re-measuring (one baseline only)")
		threshold = flag.Float64("threshold", defaultThreshold(), "allowed fractional drop of a ratio or cores entry before failing (env BENCH_NOISE overrides the default)")
		retries   = flag.Int("retries", 2, "extra re-measurements on failure; best value per entry wins")
		summary   = flag.String("summary", "", "validate a telemetry run-summary JSON file instead of gating records")
	)
	flag.Parse()

	if *summary != "" {
		if err := validateSummary(*summary); err != nil {
			fmt.Fprintf(os.Stderr, "bench-compare: summary %s: %v\n", *summary, err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 || (*current != "" && flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench-compare [-current file] [-threshold t] [-retries n] BENCH_x.json...\n       bench-compare -summary run.json")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := gateFile(path, *current, *threshold, *retries, runtime.NumCPU()); err != nil {
			fmt.Fprintf(os.Stderr, "bench-compare: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func defaultThreshold() float64 {
	if s := os.Getenv("BENCH_NOISE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.15
}

// gateFile gates the baseline record at basePath against curPath, or
// against fresh re-measurements when curPath is empty, on a host with the
// given core count.
func gateFile(basePath, curPath string, threshold float64, retries, cores int) error {
	base, err := benchrec.Read(basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	measure := func() (map[string]float64, error) {
		if curPath != "" {
			return readValues(curPath)
		}
		return regen(base.Regen, filepath.Dir(basePath))
	}
	cur, err := measure()
	if err != nil {
		return err
	}
	res := compare(base, cur, threshold, cores)
	for attempt := 0; retryable(res) && attempt < retries && curPath == ""; attempt++ {
		fmt.Printf("%s: %d entries failing, re-measuring (wall-clock runs are noisy)\n", basePath, len(failures(res)))
		again, err := measure()
		if err != nil {
			return fmt.Errorf("retry: %w", err)
		}
		mergeBest(base, cur, again)
		res = compare(base, cur, threshold, cores)
	}
	report(basePath, res, threshold, cores)
	if bad := failures(res); len(bad) > 0 {
		return fmt.Errorf("%d gated entries failed: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}

// readValues loads a current record as entry key -> value.
func readValues(path string) (map[string]float64, error) {
	r, err := benchrec.Read(path)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64, len(r.Entries))
	for _, e := range r.Entries {
		vals[e.Key()] = e.Value
	}
	return vals, nil
}

// regen re-measures a record by running its regen argv from dir, with the
// output placeholder bound to a temp file.
func regen(argv []string, dir string) (map[string]float64, error) {
	tmp, err := os.CreateTemp("", "bench_current_*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := make([]string, len(argv))
	for i, a := range argv {
		if a == benchrec.OutArg {
			a = tmp.Name()
		}
		args[i] = a
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
	}
	return readValues(tmp.Name())
}

// result is the verdict on one baseline entry.
type result struct {
	base    benchrec.Entry
	cur     float64
	found   bool
	want    float64 // the floor a ratio, cores or min entry had to reach
	skipped bool    // a cores entry on a single-core host
	failed  bool
}

// compare gates every baseline entry against the current values.
func compare(base *benchrec.Record, cur map[string]float64, threshold float64, cores int) []result {
	res := make([]result, len(base.Entries))
	for i, b := range base.Entries {
		c, found := cur[b.Key()]
		r := result{base: b, cur: c, found: found}
		switch b.Gate {
		case benchrec.Ratio:
			r.want = b.Value * (1 - threshold)
		case benchrec.Cores:
			r.skipped = cores < 2
			r.want = math.Min(b.Value, float64(cores)) * (1 - threshold)
		case benchrec.Min:
			r.want = b.Floor
		}
		switch {
		case !found:
			// Never let a dropped entry's zero value pass.
			r.failed = true
		case r.skipped || b.Gate == benchrec.None:
		case b.Gate == benchrec.Exact:
			r.failed = c != b.Value
		default:
			r.failed = c < r.want
		}
		res[i] = r
	}
	return res
}

// failures lists the keys of the failed entries.
func failures(res []result) []string {
	var bad []string
	for _, r := range res {
		if r.failed {
			bad = append(bad, r.base.Key())
		}
	}
	return bad
}

// retryable reports whether a re-measurement could change the verdict:
// something failed, and no exact pin broke (a pin cannot recover).
func retryable(res []result) bool {
	anyFailed := false
	for _, r := range res {
		if r.failed && r.found && r.base.Gate == benchrec.Exact {
			return false
		}
		anyFailed = anyFailed || r.failed
	}
	return anyFailed
}

// mergeBest folds a re-measurement into cur. A ratio, cores or min entry
// keeps its higher value; an exact entry keeps whichever value breaks its
// pin, so the pin is checked on every run; an ungated entry keeps its
// first value.
func mergeBest(base *benchrec.Record, cur, again map[string]float64) {
	for _, b := range base.Entries {
		v, ok := again[b.Key()]
		if !ok {
			continue
		}
		prev, had := cur[b.Key()]
		keep := v > prev
		switch b.Gate {
		case benchrec.Exact:
			keep = v != b.Value
		case benchrec.None:
			keep = false
		}
		if !had || keep {
			cur[b.Key()] = v
		}
	}
}

func report(path string, res []result, threshold float64, cores int) {
	fmt.Printf("%s (threshold %.0f%%, %d cores)\n", path, threshold*100, cores)
	fmt.Printf("  %-34s %-6s %12s %12s %12s  %s\n", "entry", "gate", "baseline", "current", "floor", "verdict")
	for _, r := range res {
		prec, floor, verdict := 6, "-", "ok"
		switch r.base.Gate {
		case benchrec.Ratio, benchrec.Cores, benchrec.Min:
			floor = strconv.FormatFloat(r.want, 'g', 4, 64)
		case benchrec.Exact:
			prec, floor = -1, "==" // a pin mismatch may sit in the last digit
		case benchrec.None:
			verdict = "-"
		}
		cur := strconv.FormatFloat(r.cur, 'g', prec, 64)
		switch {
		case !r.found:
			cur, verdict = "missing", "FAIL"
		case r.failed:
			verdict = "FAIL"
		case r.skipped:
			verdict = "skipped (single core)"
		}
		fmt.Printf("  %-34s %-6s %12s %12s %12s  %s\n", r.base.Key(), r.base.Gate,
			strconv.FormatFloat(r.base.Value, 'g', prec, 64), cur, floor, verdict)
	}
}

// validateSummary checks a run-summary file the way the CI full tier does:
// it must parse, satisfy RunSummary.Validate, and carry the scheduler and
// counter fields downstream tooling keys on.
func validateSummary(path string) error {
	s, err := telemetry.ReadSummaryFile(path)
	if err != nil {
		return err
	}
	if len(s.Counters) == 0 {
		return fmt.Errorf("no counters recorded")
	}
	if s.AvgVideoKbps <= 0 {
		return fmt.Errorf("avg_video_kbps = %v, want > 0", s.AvgVideoKbps)
	}
	fmt.Printf("summary ok: scheme=%s content=%s target=%.0f kbps (video %.0f / patch %.0f, share %.3f) duty=%.2f infer p50/p99 %.2f/%.2f ms\n",
		s.Scheme, s.Content, s.AvgTargetKbps, s.AvgVideoKbps, s.AvgPatchKbps, s.PatchShare,
		s.TrainerDutyCycle, s.InferP50MS, s.InferP99MS)
	return nil
}
