// Command bench2json converts `go test -bench` text output plus
// cmd/experiments sweep timings into the committed benchmark record
// (BENCH_PR7.json by default, via the Makefile's BENCH_OUT): per-
// benchmark ns/op samples (benchstat-compatible — the raw lines are
// carried verbatim) and custom metrics (vticks/run, msgs/run, …), plus
// the wall time of the full experiment sweep.
//
// If the output file already exists and carries a "baseline" section,
// that section is preserved, so re-running `make bench` refreshes the
// current numbers without losing the recorded PR-1 reference point.
//
// Usage:
//
//	bench2json -bench bench.txt -sweep sweep.txt -out BENCH_PR7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"

	"fdgrid/internal/benchrec"
)

var sweepLine = regexp.MustCompile(`\((\d+) matrices, (\d+) cells, ([0-9.]+)s\)`)

func parseBench(path string, rec *benchrec.Record) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	parsed, err := benchrec.ParseBenchOutput(f)
	if err != nil {
		return err
	}
	for name, b := range parsed {
		rec.Benchmarks[name] = b
	}
	return nil
}

func parseSweep(path string, rec *benchrec.Record) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := sweepLine.FindStringSubmatch(sc.Text()); m != nil {
			v, err := strconv.ParseFloat(m[3], 64)
			if err == nil {
				rec.SweepWallS = append(rec.SweepWallS, v)
			}
			if cells, err := strconv.Atoi(m[2]); err == nil {
				rec.SweepCells = cells
			}
		}
	}
	return sc.Err()
}

func main() {
	var (
		bench   = flag.String("bench", "", "go test -bench output file")
		sweep   = flag.String("sweep", "", "cmd/experiments output file (wall-time lines)")
		out     = flag.String("out", "BENCH_PR7.json", "output JSON file")
		note    = flag.String("note", "", "free-form note recorded in the file")
		machine = flag.String("machine", "", "machine description recorded in the file")
	)
	flag.Parse()

	rec := &benchrec.Record{Note: *note, Machine: *machine, Benchmarks: map[string]*benchrec.Benchmark{}}
	if prev, err := os.ReadFile(*out); err == nil {
		var old benchrec.Record
		if json.Unmarshal(prev, &old) == nil {
			rec.Baseline = old.Baseline
			if rec.Note == "" {
				rec.Note = old.Note
			}
			if rec.Machine == "" {
				rec.Machine = old.Machine
			}
		}
	}
	if *bench != "" {
		if err := parseBench(*bench, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *sweep != "" {
		if err := parseSweep(*sweep, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rec.Benchmarks))
	for n := range rec.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("wrote %s: %d benchmarks, %d sweep timings\n", *out, len(names), len(rec.SweepWallS))
}
