// Command perfbench is the repository benchmark. It runs one workload
// through the program's public entry points with tracing off and prints
// the end-to-end metrics, or, with --trace 1, replays one unit's work
// through the layers' public functions with a span around every call and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 32 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"livenas/internal/nn"
	"livenas/internal/vidgen"
)

// newWorkload returns the named workload at benchmark size.
func newWorkload(name string) (workload, bool) {
	switch name {
	case "ingest":
		// Codec and vidgen work: the unit every experiment repeats.
		return &sessionWorkload{cat: vidgen.JustChatting, channels: 6, metricEvery: 2 * time.Second,
			duration: 30 * time.Second, warmDur: 6 * time.Second, k: 5}, true
	case "enhance":
		// Every frame super-resolved and scored, by a 16-channel model.
		return &sessionWorkload{cat: vidgen.Fortnite, channels: 16, metricEvery: 100 * time.Millisecond,
			duration: 30 * time.Second, warmDur: 6 * time.Second, k: 3}, true
	case "edge":
		// Playlist and wire work: 1000 viewers under a fanout-8 relay tree.
		return &edgeWorkload{viewers: 1000, segments: 24, fanout: 8, k: 4}, true
	}
	return nil, false
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	setupProbes int    // extra set-ups, each in a fresh process
	traceOut    string // where the traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setupProbes: 2}
	var setupProbe bool
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, enhance or edge")
	flag.Int64Var(&o.seed, "seed", 1, "seed the run's inputs are derived from")
	flag.IntVar(&o.seconds, "seconds", 32, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: traced replay, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace-event JSON file for the traced run's spans (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	flag.BoolVar(&setupProbe, "setup-probe", false, "set up once, print the set-up time and exit (used by the benchmark itself)")
	calibrateOnly := flag.Bool("calibrate", false, "serve calibration kernel runs on stdin/stdout (used by the benchmark itself)")
	flag.Parse()

	if *calibrateOnly {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace is 0 or 1, not %d\n", o.trace)
		os.Exit(2)
	}
	w, ok := newWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want ingest, enhance or edge)\n", o.workload)
		os.Exit(2)
	}
	ctx := context.Background()
	if setupProbe {
		d, err := setup(ctx, w, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}

	var rep *report
	var detail map[string]any
	var err error
	if o.trace == 1 {
		rep, detail, err = traced(ctx, w, o)
	} else {
		rep, detail, err = measure(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printJSON(detail); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printJSON(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// setup does the process-wide first-touch work a run pays once: deriving
// the inputs (uplink traces or viewer downlinks), starting the shared nn
// kernel pool, and one untimed warm-up unit that fills the pool, the
// generic-model cache and the heap. Per-session construction (source,
// encoder, model, trainer) stays inside every timed unit.
func setup(ctx context.Context, w workload, seed int64) (time.Duration, error) {
	t0 := now()
	w.prepare(seed)
	nn.SharedPool()
	if err := w.warmUp(ctx); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return since(t0), nil
}

// probeSetup measures one more set-up in a fresh process, so that every
// set-up sample pays the process-wide first-touch work.
func probeSetup(ctx context.Context, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// maxMeasure caps the timed loop even when the run has not yet covered
// every input, so a pathologically slow build still exits in time.
const maxMeasure = 120 * time.Second

// measure is the untraced run: set-up, then units in a closed loop (the
// next starts when the previous returns) for about --seconds, and until
// every input has run once, each unit bracketed by calibration runs.
func measure(ctx context.Context, w workload, o options) (*report, map[string]any, error) {
	d, err := setup(ctx, w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	setups := []float64{d.Seconds()}
	for i := 0; i < o.setupProbes; i++ {
		s, err := probeSetup(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
	}

	calib, err := startCalibrator(ctx)
	if err != nil {
		return nil, nil, err
	}
	// The child has answered every request by the time measure returns;
	// its exit status changes nothing this run reports.
	defer func() { _ = calib.close() }()
	cal, err := calib.run()
	if err != nil {
		return nil, nil, err
	}

	k := w.inputs()
	first := make([]*unit, k)
	var rates, cpuPer, walls, calRates, calCPU []float64
	cals := []float64{cal}
	var lost, attempted float64
	attemptedUnits, failed := 0, 0
	budget := time.Duration(o.seconds) * time.Second
	start := now()
	for i := 0; ; i++ {
		// Once every input has run, stop before a unit that would likely
		// end past the budget, so a run lasts about --seconds.
		el := since(start)
		next := time.Duration(medianOf(walls) * float64(time.Second))
		if (i >= k && el+next > budget) || el >= maxMeasure {
			break
		}
		in := i % k
		attemptedUnits++
		c0, t0 := cpuTime(), now()
		u, err := w.run(ctx, in)
		wall, cpu := since(t0), cpuTime()-c0
		walls = append(walls, wall.Seconds())
		calAfter, cerr := calib.run()
		if cerr != nil {
			return nil, nil, cerr
		}
		// The unit's times are divided by the mean of the calibrations
		// run right before and right after it (see calib.go).
		ref := (cal + calAfter) / 2
		cal = calAfter
		cals = append(cals, cal)
		if err == nil && first[in] != nil && first[in].digest != u.digest {
			err = fmt.Errorf("input %d: digest %x differs from the first run's %x", in, u.digest[:8], first[in].digest[:8])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: unit %d failed: %v\n", i, err)
			failed++
			continue
		}
		if first[in] == nil {
			first[in] = u
		}
		rates = append(rates, u.work/wall.Seconds())
		cpuPer = append(cpuPer, float64(cpu)/float64(time.Millisecond)/u.work)
		calRates = append(calRates, u.work*ref/wall.Seconds())
		calCPU = append(calCPU, cpu.Seconds()/u.work/ref)
		lost += u.lost
		attempted += u.attempted
	}
	rss := peakRSSMB()

	// Virtual-time outcomes are exact per input. latency_ms is their median
	// over the run's distinct inputs, so one input whose uplink congests
	// does not swing it; the detail line keeps the means.
	var lat []float64
	quality := map[string][]float64{}
	var digests []string
	all := true
	for _, u := range first {
		if u == nil {
			all = false
			continue
		}
		lat = append(lat, u.latencyMS)
		for q, v := range u.quality {
			quality[q] = append(quality[q], v)
		}
		digests = append(digests, fmt.Sprintf("%x", u.digest))
	}
	if !all {
		fmt.Fprintln(os.Stderr, "perfbench: not every input completed a unit")
	}

	rate, cpuD, setupD := summarise(rates), summarise(cpuPer), summarise(setups)
	calRate, calCPUD := summarise(calRates), summarise(calCPU)
	rep := &report{
		Correct:   failed == 0 && all,
		Attempted: attemptedUnits,
		Failed:    failed,
		Metrics: map[string]metric{
			"units_per_calib":    {calRate.Median, "1/calib"},
			"cpu_calib_per_unit": {calCPUD.Median, "calib"},
			"latency_ms":         {medianOf(lat), "ms"},
			"setup_s":            {setupD.Median, "s"},
			"peak_rss_mb":        {rss, "MB"},
		},
	}
	un := w.unitName()
	named := map[string]any{
		un + "s_per_s":       rate,
		"cpu_ms_per_" + un:   cpuD,
		"setup_s":            setupD,
		"peak_rss_mb":        rss,
		"fail_frac":          failFrac(lost, attempted, len(rates), failed),
		"units_per_calib":    calRate,
		"cpu_calib_per_unit": calCPUD,
		"calib_s":            summarise(cals),
	}
	for q, vs := range quality {
		named[q] = mean(vs)
	}
	detail := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"unit":         un,
		"inputs":       k,
		"units":        len(rates),
		"metrics":      named,
		"digest":       runDigest(digests),
		"unit_digests": digests,
	}
	return rep, detail, nil
}

// failFrac is lost frames (or skipped segments) over attempted ones, with
// each failed unit counted in full at the mean size of the units that
// completed.
func failFrac(lost, attempted float64, completed, failed int) float64 {
	if completed == 0 {
		return 1
	}
	f := float64(failed) * attempted / float64(completed)
	return (lost + f) / (attempted + f)
}

// runDigest folds the per-input digests into one: the same seed gives the
// same run digest.
func runDigest(ds []string) string {
	var d digester
	for _, s := range ds {
		d.str(s)
	}
	sum := d.sum()
	return fmt.Sprintf("%x", sum[:16])
}

// traced is the traced run. It profiles one untraced unit, then replays
// that unit's work through the layers' public functions, alternating an
// untraced replay (the baseline for tracing overhead and coverage) with a
// traced one until --seconds have passed, and finally once more counting
// allocations.
func traced(ctx context.Context, w workload, o options) (*report, map[string]any, error) {
	if _, err := setup(ctx, w, o.seed); err != nil {
		return nil, nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	start := now()

	var u *unit
	var unitWall time.Duration
	shares, samples, err := profileShares(func() error {
		t0 := now()
		var err error
		u, err = w.run(ctx, 0)
		unitWall = since(t0)
		return err
	})
	rep.Attempted++
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: profiled unit failed:", err)
		rep.Failed++
		for _, m := range layerMetrics() {
			rep.Metrics[m.name] = metric{0, m.unit}
		}
		return rep, map[string]any{"workload": o.workload, "seed": o.seed, "error": err.Error()}, nil
	}

	spans := newTracer(modeSpans)
	firstSpans := 0
	var offWall, onWall []float64
	for len(onWall) == 0 || since(start) < time.Duration(o.seconds)*time.Second {
		if since(start) >= maxMeasure {
			break
		}
		t0 := now()
		err := w.replay(newTracer(modeOff), u)
		offWall = append(offWall, since(t0).Seconds())
		rep.Attempted++
		if err == nil {
			t0 = now()
			err = w.replay(spans, u)
			onWall = append(onWall, since(t0).Seconds())
			rep.Attempted++
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			rep.Failed++
			break
		}
		if firstSpans == 0 {
			firstSpans = len(spans.spans)
		}
	}
	allocs := newTracer(modeAllocs)
	allocs.limit = 60
	rep.Attempted++
	if err := w.replay(allocs, u); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0

	self := spans.selfTimes()
	allocN := allocs.allocCounts()
	extra := map[string]float64{
		"trace.overhead_frac": ratio(medianOf(onWall), medianOf(offWall)) - 1,
		"trace.coverage_frac": ratio(medianOf(offWall), unitWall.Seconds()),
	}
	for b, v := range shares {
		extra["profile."+b] = v
	}
	replayShares := map[string]float64{}
	var selfTotal float64
	for name, xs := range self {
		for _, x := range xs {
			replayShares[spanBucket(name)] += x
			selfTotal += x
		}
	}
	for _, b := range buckets {
		extra["replay."+b] = ratio(replayShares[b], selfTotal)
	}
	frames := float64(len(self["core.frame"]))

	timings := map[string]dist{}
	for _, m := range layerMetrics() {
		kind, src, _ := strings.Cut(m.from, ":")
		var v float64
		switch kind {
		case "self", "tail":
			d := summarise(self[src])
			if m.unit == "ms" {
				d = scaled(d, 1e-3)
			}
			v = d.Median
			if kind == "tail" {
				v = d.Tail
			} else {
				timings[m.name] = d
			}
		case "allocs":
			if xs, ok := allocN[src]; ok {
				v = medianOf(xs)
			} else {
				v = medianOf(allocN[src+".write"]) + medianOf(allocN[src+".read"])
			}
		case "value":
			v = mean(spans.values[src])
		case "count":
			v = u.counts[src]
		case "per":
			v = ratio(float64(len(self[src])), frames)
		case "extra":
			v = extra[src]
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}

	if err := writeSpans(spans, firstSpans, o.traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	profileNoRuntime := map[string]float64{}
	for _, b := range buckets {
		if b != "runtime" {
			profileNoRuntime[b] = ratio(shares[b], 1-shares["runtime"])
		}
	}
	detail := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"unit_digest": fmt.Sprintf("%x", u.digest),
		"unit_wall_s": unitWall.Seconds(),
		"replays":     len(onWall),
		"replay_s":    map[string]float64{"untraced": medianOf(offWall), "traced": medianOf(onWall)},
		"spans":       len(spans.spans),
		"trace_file":  o.traceOut,
		"timings":     timings,
		"profile": map[string]any{
			"samples":                 samples,
			"unit_shares":             shares,
			"unit_shares_but_runtime": profileNoRuntime,
			"replay_shares":           pick(extra, "replay."),
			"dominant":                topBuckets(profileNoRuntime),
		},
	}
	return rep, detail, nil
}

func scaled(d dist, f float64) dist {
	d.Median *= f
	d.Tail *= f
	return d
}

// pick returns the entries of m under prefix, with the prefix removed.
func pick(m map[string]float64, prefix string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			out[rest] = v
		}
	}
	return out
}

// topBuckets orders buckets by share, largest first.
func topBuckets(shares map[string]float64) []string {
	var bs []string
	for _, b := range buckets {
		if _, ok := shares[b]; ok {
			bs = append(bs, b)
		}
	}
	sort.SliceStable(bs, func(i, j int) bool { return shares[bs[i]] > shares[bs[j]] })
	return bs
}

// writeSpans writes the first traced replay's spans.
func writeSpans(t *tracer, n int, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := writeTraceEvents(f, t.spans[:n])
	cerr := f.Close()
	return errors.Join(werr, cerr)
}
