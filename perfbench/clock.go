package main

import (
	"fmt"
	"syscall"
	"time"
)

// The benchmark's only wall-clock and rusage reads. They time the program
// from outside; nothing read here is passed back into a session or a
// simulation, so the program's results stay deterministic.

// now reads the wall clock.
func now() time.Time {
	return time.Now() //livenas:allow determinism-taint benchmark wall-clock timing; never feeds program inputs
}

// since returns the wall time elapsed from t.
func since(t time.Time) time.Duration {
	return time.Since(t) //livenas:allow determinism-taint benchmark wall-clock timing; never feeds program inputs
}

// rusage reads the process's resource usage. getrusage(RUSAGE_SELF) fails
// only on a bad argument, which is a bug.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	//livenas:allow determinism-taint benchmark rusage read; never feeds program inputs
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuTime returns the process's user+system CPU time so far, across every
// thread (the nn kernel pool and the garbage collector included).
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}
