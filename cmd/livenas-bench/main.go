// Command livenas-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	livenas-bench -list
//	livenas-bench -fig fig9
//	livenas-bench -all
//	livenas-bench -all -full          # full-scale (slow) mode
//	livenas-bench -fig fig20 -seed 3  # sensitivity re-run
//	livenas-bench -all -parallel 8 -cache-dir .livenas-cache
//
// Each experiment's sessions run on a sweep engine: -parallel bounds how
// many execute concurrently (0 = GOMAXPROCS) and -cache-dir persists
// session results so re-runs skip already-computed sessions. Results are
// byte-identical for any -parallel value and for warm or cold caches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"time"

	"livenas/internal/benchrec"
	"livenas/internal/edge"
	"livenas/internal/exp"
	"livenas/internal/fleet"
	"livenas/internal/sweep"
	"livenas/internal/telemetry"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		fig        = flag.String("fig", "", "run one experiment by id")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "full-scale mode (slower, larger frames)")
		seed       = flag.Int64("seed", 0, "seed offset for sensitivity runs")
		traces     = flag.Int("traces", 0, "traces per data point (0 = default)")
		dur        = flag.Duration("dur", 0, "per-session stream duration (0 = default)")
		timings    = flag.Bool("time", true, "print per-experiment wall time and sweep stats")
		parallel   = flag.Int("parallel", 0, "concurrent sessions per sweep (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", "", "session-result cache directory (empty = no cache)")
		summary    = flag.String("summary", "", "run one representative LiveNAS session and write its telemetry summary JSON to this file")
		sweepBench = flag.String("sweepbench", "", "time a fixed sweep serially and in parallel, write the JSON record to this file")
		fleetN     = flag.Int("fleet", 0, "fleet experiment streamer count N (0 = default 6)")
		gpus       = flag.Int("gpus", 0, "fleet experiment GPU-pool size M (0 = default 2)")
		fleetBench = flag.String("fleetbench", "", "time the fixed fleet plan serially and in parallel, write the JSON record to this file")
		edgeBench  = flag.String("edgebench", "", "time the fixed edge fan-out plan serially and in parallel, write the JSON record to this file")
		quant      = flag.Bool("quant", false, "route inference through the int8-quantized fast path (0.5 dB online quality gate)")
		anytime    = flag.Duration("anytime", 0, "per-frame anytime-scheduling deadline, e.g. 33ms (0 = off; implies patch-level int8/f32/bilinear mixing)")
	)
	flag.Parse()

	o := exp.DefaultOptions()
	o.Fast = !*full
	o.Seed = *seed
	o.Traces = *traces
	o.Duration = *dur
	o.QuantInt8 = *quant
	o.AnytimeBudget = *anytime
	o.FleetStreams = *fleetN
	o.FleetGPUs = *gpus

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cache *sweep.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = sweep.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch {
	case *summary != "":
		s := exp.RunSummary(o)
		if err := telemetry.WriteSummaryFile(*summary, s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry summary written to %s (scheme %s, duty cycle %.2f, infer p50 %.2f ms)\n",
			*summary, s.Scheme, s.TrainerDutyCycle, s.InferP50MS)
	case *sweepBench != "":
		if err := runSweepBench(ctx, *sweepBench, o, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *fleetBench != "":
		if err := runFleetBench(ctx, *fleetBench, o, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *edgeBench != "":
		if err := runEdgeBench(*edgeBench, o, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *list:
		for _, e := range exp.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Desc)
		}
	case *fig != "":
		e, err := exp.Find(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runOne(ctx, e, o, *parallel, cache, *timings)
	case *all:
		for _, e := range exp.Registry {
			runOne(ctx, e, o, *parallel, cache, *timings)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne runs one experiment on a fresh sweep runner (so per-sweep stats
// are per-experiment; the cache is shared across experiments).
//
//livenas:allow determinism-taint wall-clock timing report only; never feeds results
func runOne(ctx context.Context, e exp.Experiment, o exp.Options, workers int, cache *sweep.Cache, timings bool) {
	start := time.Now()
	r := sweep.New(ctx, sweep.Options{Workers: workers, Cache: cache})
	defer func() {
		// A cancelled sweep surfaces as a panic from the figure generator
		// (the table contract has no error channel); exit 130 like any
		// interrupted CLI instead of dumping the panic.
		if p := recover(); p != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "[%s interrupted: %v]\n", e.ID, ctx.Err())
				os.Exit(130)
			}
			panic(p)
		}
	}()
	for _, t := range e.Run(ctx, o, r) {
		fmt.Println(t)
	}
	if timings {
		s := r.Stats()
		fmt.Printf("[%s finished in %v: %d sessions (%d executed, %d cached, %d shared), %v simulated GPU, %d workers]\n\n",
			e.ID, time.Since(start).Truncate(time.Millisecond),
			s.Submitted, s.Executed, s.Cached, s.Submitted-s.Started,
			s.SimGPU.Truncate(time.Millisecond), s.Workers)
	}
}

// planEntries returns the entries every serial-vs-parallel plan record
// carries: the worker count, both wall clocks, and the speedup, which
// cmd/bench-compare gates against the host's core count.
func planEntries(name string, workers int, serial, parallel time.Duration) []benchrec.Entry {
	return []benchrec.Entry{
		{Name: name, Metric: "workers", Value: float64(workers), Unit: "count", Better: "higher", Gate: benchrec.None},
		{Name: name, Metric: "serial_s", Value: serial.Seconds(), Unit: "s", Better: "lower", Gate: benchrec.None},
		{Name: name, Metric: "parallel_s", Value: parallel.Seconds(), Unit: "s", Better: "lower", Gate: benchrec.None},
		{Name: name, Metric: "speedup", Value: serial.Seconds() / parallel.Seconds(), Unit: "x", Better: "higher", Gate: benchrec.Cores},
	}
}

// runSweepBench times exp.SweepBenchGrid with one worker and with the full
// worker set, then writes the BENCH_sweep.json record to path.
//
//livenas:allow determinism-taint wall-clock benchmark record; never feeds results
func runSweepBench(ctx context.Context, path string, o exp.Options, workers int) error {
	grid := exp.SweepBenchGrid(o)
	run := func(w int) (time.Duration, sweep.Stats, error) {
		start := time.Now()
		r := sweep.New(ctx, sweep.Options{Workers: w})
		r.GoGrid(grid)
		_, err := r.Collect()
		return time.Since(start), r.Stats(), err
	}
	// Serial first: it also warms process-wide lazy state (shared kernel
	// pool, generic-model cache), so the parallel leg measures concurrency
	// rather than first-touch costs.
	serial, _, err := run(1)
	if err != nil {
		return err
	}
	parallel, stats, err := run(workers)
	if err != nil {
		return err
	}
	rec := &benchrec.Record{
		Regen: []string{"go", "run", "./cmd/livenas-bench", "-sweepbench", benchrec.OutArg},
		Entries: append([]benchrec.Entry{
			{Name: "sweep", Metric: "sessions", Value: float64(stats.Executed), Unit: "count", Better: "higher", Gate: benchrec.Exact},
		}, planEntries("sweep", stats.Workers, serial, parallel)...),
	}
	if err := benchrec.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("sweep bench: %d sessions, serial %.2fs, parallel(%d) %.2fs, speedup x%.2f -> %s\n",
		stats.Executed, serial.Seconds(), stats.Workers, parallel.Seconds(), serial.Seconds()/parallel.Seconds(), path)
	return nil
}

// runFleetBench executes exp.FleetBenchPlan with one worker and with the
// full worker set, then writes the BENCH_fleet.json record to path. The
// plan's shape, its session count and its virtual-time p99 admission
// latency are pure simulated quantities — identical on every host — so
// they are exact pins; the regen argv carries the shape so a re-measure
// times the same plan.
//
//livenas:allow determinism-taint wall-clock benchmark record; never feeds results
func runFleetBench(ctx context.Context, path string, o exp.Options, workers int) error {
	run := func(w int) (time.Duration, *fleet.Plan, int, error) {
		p, err := exp.FleetBenchPlan(o)
		if err != nil {
			return 0, nil, 0, err
		}
		start := time.Now()
		r := sweep.New(ctx, sweep.Options{Workers: w})
		p.Submit(r)
		if err := p.Collect(); err != nil {
			return 0, nil, 0, err
		}
		return time.Since(start), p, r.Stats().Workers, nil
	}
	// Serial first warms process-wide lazy state, like runSweepBench.
	serial, plan, _, err := run(1)
	if err != nil {
		return err
	}
	parallel, _, nworkers, err := run(workers)
	if err != nil {
		return err
	}
	st := plan.Stats()
	sessions := float64(st.Admitted + st.Degraded)
	gpus := plan.M.Pool().Total()
	admitP99 := float64(st.AdmitP99) / float64(time.Millisecond)
	rec := &benchrec.Record{
		Regen: []string{"go", "run", "./cmd/livenas-bench", "-fleet", strconv.Itoa(st.Streams),
			"-gpus", strconv.Itoa(gpus), "-fleetbench", benchrec.OutArg},
		Entries: append([]benchrec.Entry{
			{Name: "fleet", Metric: "streams", Value: float64(st.Streams), Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "fleet", Metric: "gpus", Value: float64(gpus), Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "fleet", Metric: "sessions", Value: sessions, Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "fleet", Metric: "admit_p99_ms", Value: admitP99, Unit: "ms", Better: "lower", Gate: benchrec.Exact},
			{Name: "fleet", Metric: "sessions_per_sec_serial", Value: sessions / serial.Seconds(), Unit: "sessions/s", Better: "higher", Gate: benchrec.None},
			{Name: "fleet", Metric: "sessions_per_sec_parallel", Value: sessions / parallel.Seconds(), Unit: "sessions/s", Better: "higher", Gate: benchrec.None},
		}, planEntries("fleet", nworkers, serial, parallel)...),
	}
	if err := benchrec.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("fleet bench: %d streams on %d GPUs, %.0f sessions, serial %.2fs, parallel(%d) %.2fs, speedup x%.2f, admit p99 %.0fms -> %s\n",
		st.Streams, gpus, sessions, serial.Seconds(), nworkers, parallel.Seconds(), serial.Seconds()/parallel.Seconds(), admitP99, path)
	return nil
}

// runEdgeBench executes exp.EdgeBenchPlan serially and across a worker
// pool, then writes the BENCH_edge.json record to path. Each sim is
// single-threaded on its own virtual clock, so the pool parallelises
// across sims. The plan's shape, delivered-segment count and worst
// virtual-time delivery p99 are pure simulated quantities — identical on
// every host — so they are exact pins.
//
//livenas:allow determinism-taint wall-clock benchmark record; never feeds results
func runEdgeBench(path string, o exp.Options, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan := exp.EdgeBenchPlan(o)
	if workers > len(plan) {
		workers = len(plan)
	}
	run := func(w int) (time.Duration, []*edge.Result, error) {
		start := time.Now()
		results := make([]*edge.Result, len(plan))
		errs := make([]error, len(plan))
		sem := make(chan struct{}, w)
		var wg sync.WaitGroup
		for i := range plan {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i], errs[i] = edge.RunSim(plan[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), results, nil
	}
	// Serial first warms process-wide lazy state, like runSweepBench.
	serial, results, err := run(1)
	if err != nil {
		return err
	}
	parallel, _, err := run(workers)
	if err != nil {
		return err
	}
	var viewers, delivered int
	var p99 time.Duration
	for _, r := range results {
		viewers += r.Viewers
		delivered += r.Delivered
		if r.DeliveryP99 > p99 {
			p99 = r.DeliveryP99
		}
	}
	p99MS := float64(p99) / float64(time.Millisecond)
	rec := &benchrec.Record{
		Regen: []string{"go", "run", "./cmd/livenas-bench", "-edgebench", benchrec.OutArg},
		Entries: append([]benchrec.Entry{
			{Name: "edge", Metric: "sims", Value: float64(len(plan)), Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "edge", Metric: "viewers", Value: float64(viewers), Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "edge", Metric: "delivered", Value: float64(delivered), Unit: "count", Better: "higher", Gate: benchrec.Exact},
			{Name: "edge", Metric: "seg_p99_ms", Value: p99MS, Unit: "ms", Better: "lower", Gate: benchrec.Exact},
			{Name: "edge", Metric: "viewers_per_sec_serial", Value: float64(viewers) / serial.Seconds(), Unit: "viewers/s", Better: "higher", Gate: benchrec.None},
			{Name: "edge", Metric: "viewers_per_sec_parallel", Value: float64(viewers) / parallel.Seconds(), Unit: "viewers/s", Better: "higher", Gate: benchrec.None},
		}, planEntries("edge", workers, serial, parallel)...),
	}
	if err := benchrec.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("edge bench: %d sims, %d viewers, serial %.2fs, parallel(%d) %.2fs, speedup x%.2f, seg p99 %.1fms -> %s\n",
		len(plan), viewers, serial.Seconds(), workers, parallel.Seconds(), serial.Seconds()/parallel.Seconds(), p99MS, path)
	return nil
}
