// Command benchgate is the CI benchmark-regression gate: it compares a
// fresh `go test -bench` run against the committed benchmark record and
// fails when any selected benchmark's median ns/op regressed beyond the
// threshold.
//
// The committed record's numbers were measured on one machine and CI
// runs on another, so the gate is a coarse tripwire for order-of-
// magnitude breakage (a lock reintroduced on the token path, an
// accidental allocation per tick), not a precision instrument — hence
// the generous default threshold and the median-of-counts input.
//
// -emit-raw writes the baseline's raw benchmark lines to a file so
// benchstat can render a proper side-by-side comparison next to the
// gate's verdict.
//
// Usage:
//
//	benchgate -baseline BENCH_PR7.json -bench fresh.txt [-match 'BenchmarkScheduler'] [-threshold 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"fdgrid/internal/benchrec"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_PR7.json", "committed benchmark record")
		benchPath    = flag.String("bench", "", "fresh `go test -bench` output file")
		match        = flag.String("match", "BenchmarkScheduler", "regexp selecting the gated benchmarks")
		threshold    = flag.Float64("threshold", 0.25, "maximum tolerated median ns/op regression (0.25 = +25%)")
		emitRaw      = flag.String("emit-raw", "", "write the baseline's raw benchmark lines here (for benchstat)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sel, err := regexp.Compile(*match)
	if err != nil {
		fatal(err)
	}
	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var rec benchrec.Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		fatal(fmt.Errorf("benchgate: unreadable record %s: %w", *baselinePath, err))
	}

	if *emitRaw != "" {
		var lines []string
		names := sortedNames(rec.Benchmarks)
		for _, name := range names {
			lines = append(lines, rec.Benchmarks[name].Raw...)
		}
		if err := os.WriteFile(*emitRaw, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if *benchPath == "" {
		if *emitRaw == "" {
			fatal(fmt.Errorf("benchgate: nothing to do (need -bench and/or -emit-raw)"))
		}
		return
	}

	f, err := os.Open(*benchPath)
	if err != nil {
		fatal(err)
	}
	fresh, err := benchrec.ParseBenchOutput(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	gated, failed := 0, 0
	for _, name := range sortedNames(fresh) {
		if !sel.MatchString(name) {
			continue
		}
		cur := benchrec.Median(fresh[name].NsOp)
		if cur == 0 {
			continue
		}
		base, ok := rec.Benchmarks[name]
		if !ok || benchrec.Median(base.NsOp) == 0 {
			fmt.Printf("SKIP %-48s no baseline sample\n", name)
			continue
		}
		gated++
		baseMed := benchrec.Median(base.NsOp)
		ratio := cur / baseMed
		verdict := "ok  "
		if ratio > 1+*threshold {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %-48s %10.1f → %10.1f ns/op  (%+.1f%%)\n",
			verdict, name, baseMed, cur, (ratio-1)*100)
	}
	// Cross-check the other direction: every gated baseline benchmark
	// must appear in the fresh run. Iterating fresh names alone would let
	// a deleted (or renamed, or accidentally skipped) benchmark slip
	// through — removing BenchmarkSchedulerTick must fail the gate, not
	// silently shrink it.
	missing := 0
	for _, name := range sortedNames(rec.Benchmarks) {
		if !sel.MatchString(name) || benchrec.Median(rec.Benchmarks[name].NsOp) == 0 {
			continue
		}
		if b, ok := fresh[name]; !ok || benchrec.Median(b.NsOp) == 0 {
			fmt.Printf("MISS %-48s gated in the baseline but absent from the fresh run\n", name)
			missing++
		}
	}
	if gated == 0 && missing == 0 {
		fatal(fmt.Errorf("benchgate: no benchmark matched %q with a baseline — the gate gated nothing", *match))
	}
	if missing > 0 {
		fatal(fmt.Errorf("benchgate: %d gated baseline benchmarks missing from the fresh run", missing))
	}
	if failed > 0 {
		fatal(fmt.Errorf("benchgate: %d of %d gated benchmarks regressed beyond +%.0f%%", failed, gated, *threshold*100))
	}
	fmt.Printf("benchgate: %d benchmarks within +%.0f%% of %s\n", gated, *threshold*100, *baselinePath)
}

func sortedNames(m map[string]*benchrec.Benchmark) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
