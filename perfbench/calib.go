package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The box this benchmark runs on shares its cores and memory with other
// machines' work, and its speed drifts by up to 2x over minutes: the same
// edge simulation ran at about 500 viewers/s for five minutes and at
// 1000-1200 viewers/s for the next five. Wall and CPU time per unit follow
// the drift, so the gated throughput and CPU metrics divide each unit's
// time by the time of a fixed calibration kernel run right before and
// right after it. The kernel mixes what the workloads do (small-object
// allocation and GC, pointer chasing, sorting, map updates, float math),
// so it slows down with the machine and the ratio does not. It runs no
// program code: a change to the program moves the ratio, a change in the
// machine's speed cancels out.
//
// The kernel runs in a child process, so its heap neither raises the
// workload's peak RSS nor shifts the workload's GC pacing, and its CPU
// time is not the workload's.

type calibItem struct {
	key  uint64
	val  float64
	next *calibItem
}

// calibSink keeps the kernel's results alive.
var calibSink float64

// calibRuns is how many kernel runs one calibration takes the median of,
// so that one run's GC or scheduling hiccup does not skew a unit's ratio.
const calibRuns = 3

// calibrate returns the median wall time of calibRuns kernel runs.
func calibrate() float64 {
	var ts []float64
	for i := 0; i < calibRuns; i++ {
		ts = append(ts, kernel().Seconds())
	}
	return medianOf(ts)
}

// kernel runs the calibration kernel once and returns its wall time.
func kernel() time.Duration {
	t0 := now()
	const n = 100_000
	x := uint64(88172645463325252)
	items := make([]*calibItem, 0, n)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := &calibItem{key: x, val: float64(x%1000) * 0.5}
		if i > 0 {
			it.next = items[x%uint64(i)]
		}
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	buckets := make(map[uint64]int, 1<<16)
	var s float64
	for i, it := range items {
		buckets[it.key&0xffff] += i
		for p, k := it, 0; p != nil && k < 4; p, k = p.next, k+1 {
			s += math.Sqrt(p.val + 1)
		}
	}
	calibSink += s + float64(len(buckets))
	return since(t0)
}

// serveCalibration is the child's side: one calibration per line read
// from stdin, its time in seconds written back, until stdin closes.
func serveCalibration(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if _, err := fmt.Fprintln(out, strconv.FormatFloat(calibrate(), 'g', -1, 64)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator is the parent's handle on the calibration child.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startCalibrator(ctx context.Context) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--calibrate")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// run has the child calibrate once and returns the kernel's time.
func (c *calibrator) run() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	if !c.out.Scan() {
		return 0, fmt.Errorf("calibrator: %w", errors.Join(c.out.Err(), io.ErrUnexpectedEOF))
	}
	return strconv.ParseFloat(strings.TrimSpace(c.out.Text()), 64)
}

// close ends the child and waits for it.
func (c *calibrator) close() error {
	return errors.Join(c.in.Close(), c.cmd.Wait())
}
