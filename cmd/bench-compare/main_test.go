package main

import (
	"path/filepath"
	"slices"
	"testing"

	"livenas/internal/benchrec"
)

func record(entries ...benchrec.Entry) *benchrec.Record {
	return &benchrec.Record{Schema: benchrec.Schema, Regen: []string{"true", benchrec.OutArg}, Entries: entries}
}

func writeRecord(t *testing.T, r *benchrec.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := benchrec.Write(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func gated(metric string, v float64, gate benchrec.Gate) benchrec.Entry {
	return benchrec.Entry{Name: "plan", Metric: metric, Value: v, Unit: "x", Better: "higher", Gate: gate}
}

// TestGate pins each gate kind's verdict on one baseline entry at the
// default 15% threshold.
func TestGate(t *testing.T) {
	vetWarm := gated("warm_speedup", 651.9, benchrec.Min)
	vetWarm.Floor = 2
	segP99 := gated("seg_p99_ms", 851.628724, benchrec.Exact)
	segP99.Better = "lower"
	const missing = -1
	for _, tc := range []struct {
		name  string
		base  benchrec.Entry
		cur   float64 // missing: absent from the current record
		cores int
		fail  bool
	}{
		{"ratio equal", gated("speedup", 2, benchrec.Ratio), 2, 4, false},
		{"ratio drop within threshold", gated("speedup", 2, benchrec.Ratio), 2 * 0.9, 4, false},
		{"ratio drop beyond threshold", gated("speedup", 2, benchrec.Ratio), 2 * 0.8, 4, true},
		{"ratio missing", gated("speedup", 2, benchrec.Ratio), missing, 4, true},
		{"cores baseline capped at host cores", gated("speedup", 8, benchrec.Cores), 1.8, 2, false},
		{"cores collapse on multi-core host", gated("speedup", 3, benchrec.Cores), 1, 4, true},
		{"cores skipped on single-core host", gated("speedup", 3, benchrec.Cores), 0.5, 1, false},
		{"cores missing on single-core host", gated("speedup", 3, benchrec.Cores), missing, 1, true},
		{"min above floor far below baseline", vetWarm, 2.5, 1, false},
		{"min below floor", vetWarm, 1.5, 4, true},
		{"exact match", segP99, 851.628724, 1, false},
		{"exact last-digit mismatch", segP99, 851.628725, 4, true},
		{"exact count mismatch", gated("delivered", 11520, benchrec.Exact), 11519, 4, true},
		{"exact zero never matches a pinned count", gated("viewers", 480, benchrec.Exact), 0, 4, true},
		{"none reports any value", gated("serial_s", 16.5, benchrec.None), 0, 4, false},
		{"none missing", gated("serial_s", 16.5, benchrec.None), missing, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := map[string]float64{}
			if tc.cur != missing {
				cur[tc.base.Key()] = tc.cur
			}
			res := compare(record(tc.base), cur, 0.15, tc.cores)
			if got := len(failures(res)) > 0; got != tc.fail {
				t.Fatalf("failed = %v, want %v (%+v)", got, tc.fail, res[0])
			}
		})
	}
}

// TestReadBenchFileRejectsMissingTracked pins that every entry of the
// committed kernel record is tracked: a current record lacking any one of
// them fails the gate, even though every value it does carry matches.
func TestReadBenchFileRejectsMissingTracked(t *testing.T) {
	basePath := "../../BENCH_kernels.json"
	base, err := benchrec.Read(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for i, dropped := range base.Entries {
		cur := record(append(append([]benchrec.Entry(nil), base.Entries[:i]...), base.Entries[i+1:]...)...)
		if err := gateFile(basePath, writeRecord(t, cur), 0.15, 0, 4); err == nil {
			t.Fatalf("record missing tracked entry %s was accepted", dropped.Key())
		}
	}
}

// TestCompareFlagsMissingAndRegressed pins the gate over a whole record: a
// dropped entry and a regressed one both fail, and nothing else does.
func TestCompareFlagsMissingAndRegressed(t *testing.T) {
	base := record(
		benchrec.Entry{Name: "conv_forward", Metric: "speedup", Value: 2, Unit: "x", Better: "higher", Gate: benchrec.Ratio},
		benchrec.Entry{Name: "conv_backward", Metric: "speedup", Value: 2, Unit: "x", Better: "higher", Gate: benchrec.Ratio},
		benchrec.Entry{Name: "inference_1080p_int8", Metric: "speedup", Value: 2, Unit: "x", Better: "higher", Gate: benchrec.Ratio},
	)
	cur := map[string]float64{"conv_forward.speedup": 1, "conv_backward.speedup": 2 * 0.9}
	got := failures(compare(base, cur, 0.15, 4))
	if len(got) != 2 || got[0] != "conv_forward.speedup" || got[1] != "inference_1080p_int8.speedup" {
		t.Fatalf("failures = %v, want conv_forward and inference_1080p_int8", got)
	}
}

func fleetRecord(speedup, admitP99 float64) *benchrec.Record {
	p99 := gated("admit_p99_ms", admitP99, benchrec.Exact)
	p99.Better = "lower"
	return record(gated("sessions", 6, benchrec.Exact), p99, gated("speedup", speedup, benchrec.Cores))
}

// TestReadFleetRecordValidation pins the fleet record's session count: the
// committed record reads and pins a positive count exactly, and a current
// record reporting zero sessions fails the gate.
func TestReadFleetRecordValidation(t *testing.T) {
	basePath := "../../BENCH_fleet.json"
	base, err := benchrec.Read(basePath)
	if err != nil {
		t.Fatalf("committed fleet record rejected: %v", err)
	}
	i := slices.IndexFunc(base.Entries, func(e benchrec.Entry) bool { return e.Key() == "fleet.sessions" })
	if i < 0 || base.Entries[i].Gate != benchrec.Exact || base.Entries[i].Value <= 0 {
		t.Fatalf("committed fleet record lacks a positive exact sessions pin: %+v", base.Entries)
	}
	bad := record(slices.Clone(base.Entries)...)
	bad.Entries[i].Value = 0
	if err := gateFile(basePath, writeRecord(t, bad), 0.15, 0, 4); err == nil {
		t.Fatal("record with zero sessions accepted")
	}
}

// TestFleetGateAdmissionPin pins the determinism half of the fleet gate: a
// p99 admission latency differing from the baseline fails whatever the
// throughput, because simulated time cannot be host-dependent.
func TestFleetGateAdmissionPin(t *testing.T) {
	base := writeRecord(t, fleetRecord(3, 45000))
	for _, cores := range []int{1, 4} {
		if err := gateFile(base, writeRecord(t, fleetRecord(3, 45001)), 0.15, 0, cores); err == nil {
			t.Fatalf("%d cores: p99 mismatch passed the gate", cores)
		}
	}
}

func TestFleetGateSpeedup(t *testing.T) {
	base := writeRecord(t, fleetRecord(3, 45000))
	if err := gateFile(base, writeRecord(t, fleetRecord(3, 45000)), 0.15, 0, 4); err != nil {
		t.Fatalf("matching record failed the gate: %v", err)
	}
	slow := writeRecord(t, fleetRecord(0.5, 45000))
	if err := gateFile(base, slow, 0.15, 0, 4); err == nil {
		t.Fatal("collapsed speedup passed the gate on a multi-core host")
	}
	if err := gateFile(base, slow, 0.15, 0, 1); err != nil {
		t.Fatalf("single-core host must skip the speedup gate: %v", err)
	}
}

// TestMergeBest pins the retry merge: floor-gated entries keep their best
// value across runs, and a broken exact pin sticks even if a later run
// matches.
func TestMergeBest(t *testing.T) {
	base := fleetRecord(3, 45000)
	got := map[string]float64{"plan.sessions": 6, "plan.admit_p99_ms": 45000, "plan.speedup": 1}
	for _, again := range []map[string]float64{
		{"plan.sessions": 6, "plan.admit_p99_ms": 45001, "plan.speedup": 2.9},
		{"plan.sessions": 6, "plan.admit_p99_ms": 45000, "plan.speedup": 2},
	} {
		mergeBest(base, got, again)
	}
	if got["plan.speedup"] != 2.9 || got["plan.admit_p99_ms"] != 45001 {
		t.Fatalf("merged = %v, want speedup 2.9 and the broken pin 45001", got)
	}
	if retryable(compare(base, got, 0.15, 4)) {
		t.Fatal("a broken exact pin must not be retried")
	}
}

// TestCommittedRecordsPassAgainstThemselves turns schema drift in a
// committed BENCH_*.json into a test failure: every record must parse and
// pass its own gate.
func TestCommittedRecordsPassAgainstThemselves(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed records found: %v", err)
	}
	for _, path := range paths {
		if err := gateFile(path, path, 0.15, 0, 4); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestGateReMeasuresViaRegen pins the re-measure path: the record's own
// regen argv runs from the record's directory with the output placeholder
// bound, and a regression that persists across retries fails.
func TestGateReMeasuresViaRegen(t *testing.T) {
	base := fleetRecord(3, 45000)
	base.Regen = []string{"cp", "current.json", benchrec.OutArg}
	basePath := writeRecord(t, base)
	current := filepath.Join(filepath.Dir(basePath), "current.json")
	if err := benchrec.Write(current, fleetRecord(2.9, 45000)); err != nil {
		t.Fatal(err)
	}
	if err := gateFile(basePath, "", 0.15, 2, 4); err != nil {
		t.Fatalf("re-measured record within threshold failed: %v", err)
	}
	if err := benchrec.Write(current, fleetRecord(1, 45000)); err != nil {
		t.Fatal(err)
	}
	if err := gateFile(basePath, "", 0.15, 2, 4); err == nil {
		t.Fatal("persistent regression passed after retries")
	}
}
