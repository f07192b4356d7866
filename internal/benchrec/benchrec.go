// Package benchrec is the one record format of the repository's component
// and plan gates: the committed BENCH_*.json files that cmd/bench-compare
// checks. scripts/bench.sh, `livenas-bench -sweepbench/-fleetbench/
// -edgebench` and `livenas-vet -bench` all write it, and cmd/bench-compare
// is its only reader.
//
// A Record is a flat list of entries, each one measured figure with its
// unit, its better direction and the gate that applies to it. The record
// also carries the argv that re-measures it (Regen), so the gate needs no
// per-record knowledge of how a figure is produced.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// Schema is the record format version; Read rejects any other.
const Schema = 2

// OutArg is the placeholder in Regen that the gate replaces with the path
// the re-measured record must be written to.
const OutArg = "{out}"

// Gate is how an entry is compared against its committed baseline.
type Gate string

const (
	// Ratio requires current >= baseline*(1-threshold).
	Ratio Gate = "ratio"
	// Cores is Ratio with the baseline first capped at the host's core
	// count, since a parallel speedup cannot exceed it; skipped on a
	// single-core host, where the speedup is unmeasurable.
	Cores Gate = "cores"
	// Min requires current >= Entry.Floor, whatever the baseline.
	Min Gate = "min"
	// Exact requires current == baseline bit for bit: the figure is pure
	// simulated time or a count, identical on every host.
	Exact Gate = "exact"
	// None reports the figure without gating it (raw timings, shapes).
	None Gate = "none"
)

// Entry is one measured figure. Name is the measured thing (a kernel
// bench, a plan) and Metric the quantity; together they identify the
// entry within its record.
type Entry struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Gate   Gate    `json:"gate"`
	Floor  float64 `json:"floor,omitempty"` // Min gates only
}

// Key identifies e within its record.
func (e Entry) Key() string { return e.Name + "." + e.Metric }

// Record is one BENCH_*.json file.
type Record struct {
	Schema int `json:"schema"`
	// Regen is the argv, run from the record's directory, that re-measures
	// this record and writes it to the OutArg path.
	Regen   []string `json:"regen"`
	Entries []Entry  `json:"entries"`
}

// validate checks the record is one the gate can act on: the current
// schema, a regen command with the output placeholder, and well-formed,
// unique entries whose gated values are positive.
func (r *Record) validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %d, want %d", r.Schema, Schema)
	}
	if !slices.Contains(r.Regen, OutArg) {
		return fmt.Errorf("regen %q lacks the %s placeholder", r.Regen, OutArg)
	}
	if len(r.Entries) == 0 {
		return fmt.Errorf("no entries")
	}
	seen := map[string]bool{}
	for _, e := range r.Entries {
		if e.Name == "" || e.Metric == "" || e.Unit == "" {
			return fmt.Errorf("entry %+v lacks a name, metric or unit", e)
		}
		if seen[e.Key()] {
			return fmt.Errorf("duplicate entry %s", e.Key())
		}
		seen[e.Key()] = true
		if e.Better != "higher" && e.Better != "lower" {
			return fmt.Errorf("%s: better %q, want higher or lower", e.Key(), e.Better)
		}
		switch e.Gate {
		case Ratio, Cores, Min:
			// The gates are floors: a lower-is-better figure would need the
			// opposite comparison, which no record uses.
			if e.Better != "higher" {
				return fmt.Errorf("%s: %s gate on a lower-is-better figure", e.Key(), e.Gate)
			}
			if e.Value <= 0 {
				return fmt.Errorf("%s: non-positive gated value %v", e.Key(), e.Value)
			}
			if e.Gate == Min && e.Floor <= 0 {
				return fmt.Errorf("%s: min gate without a positive floor", e.Key())
			}
		case Exact, None:
		default:
			return fmt.Errorf("%s: unknown gate %q", e.Key(), e.Gate)
		}
	}
	return nil
}

// Read loads and validates the record at path.
func Read(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write stamps r with the current schema, validates it and writes it to
// path with one entry per line, so a re-recorded baseline diffs figure by
// figure.
func Write(path string, r *Record) error {
	r.Schema = Schema
	if err := r.validate(); err != nil {
		return err
	}
	regen, err := json.Marshal(r.Regen)
	if err != nil {
		return err
	}
	lines := make([]string, len(r.Entries))
	for i, e := range r.Entries {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key(), err)
		}
		lines[i] = "    " + string(line)
	}
	out := fmt.Sprintf("{\n  \"schema\": %d,\n  \"regen\": %s,\n  \"entries\": [\n%s\n  ]\n}\n",
		r.Schema, regen, strings.Join(lines, ",\n"))
	return os.WriteFile(path, []byte(out), 0o644)
}
