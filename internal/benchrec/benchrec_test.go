package benchrec

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func valid() *Record {
	return &Record{
		Schema: Schema,
		Regen:  []string{"go", "run", "./cmd/x", "-o", OutArg},
		Entries: []Entry{
			{Name: "fleet", Metric: "speedup", Value: 1.5, Unit: "x", Better: "higher", Gate: Cores},
			{Name: "fleet", Metric: "admit_p99_ms", Value: 75000, Unit: "ms", Better: "lower", Gate: Exact},
			{Name: "vet", Metric: "warm_speedup", Value: 651.9, Unit: "x", Better: "higher", Gate: Min, Floor: 2},
			{Name: "fleet", Metric: "allocs_op", Value: 0, Unit: "allocs/op", Better: "lower", Gate: None},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	want := valid()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Record)
		errHas string // "" = valid
	}{
		{"valid", func(*Record) {}, ""},
		{"old schema", func(r *Record) { r.Schema = 1 }, "schema"},
		{"regen without placeholder", func(r *Record) { r.Regen = r.Regen[:len(r.Regen)-1] }, "placeholder"},
		{"no entries", func(r *Record) { r.Entries = nil }, "no entries"},
		{"duplicate entry", func(r *Record) { r.Entries = append(r.Entries, r.Entries[0]) }, "duplicate"},
		{"missing unit", func(r *Record) { r.Entries[0].Unit = "" }, "unit"},
		{"unknown better", func(r *Record) { r.Entries[1].Better = "equal" }, "better"},
		{"unknown gate", func(r *Record) { r.Entries[0].Gate = "approx" }, "unknown gate"},
		{"zero gated value", func(r *Record) { r.Entries[0].Value = 0 }, "non-positive"},
		{"negative gated value", func(r *Record) { r.Entries[2].Value = -1 }, "non-positive"},
		{"floor gate on lower-is-better", func(r *Record) { r.Entries[0].Better = "lower" }, "lower-is-better"},
		{"min without floor", func(r *Record) { r.Entries[2].Floor = 0 }, "floor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mutate(r)
			err := r.validate()
			switch {
			case tc.errHas == "" && err != nil:
				t.Fatalf("valid record rejected: %v", err)
			case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
				t.Fatalf("error %v, want one mentioning %q", err, tc.errHas)
			}
		})
	}
}
