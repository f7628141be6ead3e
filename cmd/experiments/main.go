// Command experiments regenerates EXPERIMENTS.md: every experiment of
// DESIGN.md §5 (one per figure/result of the paper) is a declarative
// sweep.Matrix. The command works in three steps: suite(seeds) lists the
// matrices in suite order, each runs to a report with sweep.Run (the
// cells of one matrix fan out across a worker pool), and render formats
// the finished reports as markdown in one pass, recording the paper's
// claim next to the measured outcome. The per-cell results are
// deterministic and no host timing enters the markdown, so the rendered
// report is byte-stable run to run. The suite's cost is measured
// outside it, by suitebench (BENCHMARK.json).
//
// The suite also shards: `-shard i/m` runs only every m-th cell of
// every matrix and writes a partial JSON suite without rendering; m
// such runs recombine with `-merge` into bytes identical to the
// unsharded `-report` output. This is the suite's one fan-out path: CI
// runs it across jobs, and the same invocations split a sweep across
// machines.
//
// Usage:
//
//	experiments [-out EXPERIMENTS.md] [-seeds 3] [-workers N] [-report sweep.json]
//	experiments -shard i/m -report shard-i.json        # one shard, no markdown
//	experiments -merge -report merged.json shard-*.json
//	experiments ... -golden suite.golden.json          # byte-compare the suite
//	experiments ... -cpuprofile cpu.prof -memprofile mem.prof
//	experiments -replay MATRIX:INDEX                   # trace one suite cell
//	experiments -replay MATRIX:INDEX -perturb stab+2000 [-trace full]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fdgrid/internal/sweep"
	"fdgrid/internal/trace"
)

func main() {
	var (
		out       = flag.String("out", "EXPERIMENTS.md", "output file")
		seeds     = flag.Int("seeds", 3, "seeds per configuration")
		workers   = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		report    = flag.String("report", "", "also write the canonical JSON sweep reports here")
		verbose   = flag.Bool("v", false, "print per-matrix progress to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the sweep here")
		memprof   = flag.String("memprofile", "", "write a heap profile (after the sweep, post-GC) here")
		shardSpec = flag.String("shard", "", "run only shard i/m of every matrix (format \"i/m\"); requires -report and skips the markdown output")
		merge     = flag.Bool("merge", false, "merge the shard suite files given as arguments into one suite; requires -report")
		golden    = flag.String("golden", "", "after writing the suite JSON, byte-compare it against this file and fail on any difference")
		replay    = flag.String("replay", "", "re-run one suite cell with decision tracing on (format \"MATRIX:INDEX\"); skips the suite")
		perturb   = flag.String("perturb", "", "with -replay: one counterfactual edit (\"gst±K\", \"stab±K\", \"crash=P@T\", \"hold[I]±K\") applied to a second run, diffed against the first")
		traceLvl  = flag.String("trace", "", "with -replay: trace level (\"decisions\" or \"full\"; default decisions)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if err := checkSeeds(*seeds); err != nil {
		fatal(err)
	}
	if *replay != "" {
		if err := runReplay(*replay, *perturb, *traceLvl, *seeds, *workers); err != nil {
			fatal(err)
		}
		return
	}
	if *perturb != "" || *traceLvl != "" {
		fatal(fmt.Errorf("experiments: -perturb and -trace require -replay"))
	}

	if *merge {
		if *report == "" {
			fatal(fmt.Errorf("experiments: -merge requires -report"))
		}
		blob, err := mergeSuites(flag.Args())
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*report, blob, 0o644); err != nil {
			fatal(err)
		}
		if err := compareGolden(blob, *golden); err != nil {
			fatal(err)
		}
		fmt.Printf("merged %d shard suites into %s (%d bytes)\n", len(flag.Args()), *report, len(blob))
		return
	}

	shard, err := parseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}
	if shard.Count > 0 && *report == "" {
		fatal(fmt.Errorf("experiments: -shard requires -report (a shard has no markdown output)"))
	}
	opts := sweep.Options{Workers: *workers, Shard: shard}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	reports, err := runSuite(suite(*seeds), opts, *verbose)
	if err != nil {
		fatal(err)
	}

	if shard.Count == 0 {
		md, err := render(reports)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
			fatal(err)
		}
	}
	cells := 0
	for _, r := range reports {
		cells += len(r.Cells)
	}
	if *report != "" {
		blob, err := sweep.SuiteJSON(reports)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*report, blob, 0o644); err != nil {
			fatal(err)
		}
		if err := compareGolden(blob, *golden); err != nil {
			fatal(err)
		}
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		// GC first so the profile shows live retained memory (the
		// sweep's steady-state footprint), not transient garbage.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	target := *out
	if shard.Count > 0 {
		target = fmt.Sprintf("%s [shard %d/%d]", *report, shard.Index, shard.Count)
	}
	fmt.Printf("wrote %s (%d matrices, %d cells, %.2fs)\n", target, len(reports), cells, time.Since(start).Seconds())
}

// parseShard parses "i/m" (empty = unsharded). Strict: both halves
// must be bare integers — fmt.Sscanf-style prefix parsing would accept
// trailing junk like "0/4x" and silently run the wrong shard.
func parseShard(spec string) (sweep.Shard, error) {
	if spec == "" {
		return sweep.Shard{}, nil
	}
	idx, cnt, ok := strings.Cut(spec, "/")
	if !ok {
		return sweep.Shard{}, fmt.Errorf("experiments: bad -shard %q (want i/m)", spec)
	}
	var s sweep.Shard
	var err error
	if s.Index, err = strconv.Atoi(idx); err != nil {
		return sweep.Shard{}, fmt.Errorf("experiments: bad -shard %q: index %q is not an integer (want i/m)", spec, idx)
	}
	if s.Count, err = strconv.Atoi(cnt); err != nil {
		return sweep.Shard{}, fmt.Errorf("experiments: bad -shard %q: count %q is not an integer (want i/m)", spec, cnt)
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return sweep.Shard{}, fmt.Errorf("experiments: -shard %q out of range", spec)
	}
	return s, nil
}

// checkSeeds rejects a -seeds value that leaves no seed to sweep.
func checkSeeds(n int) error {
	if n < 1 {
		return fmt.Errorf("experiments: -seeds %d out of range (want >= 1)", n)
	}
	return nil
}

// runSuite runs the matrices in order and returns their reports.
func runSuite(ms []sweep.Matrix, opts sweep.Options, verbose bool) ([]*sweep.Report, error) {
	reports := make([]*sweep.Report, 0, len(ms))
	for _, m := range ms {
		r, err := sweep.Run(m, opts)
		if err != nil {
			return nil, err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "%-32s %6.2fs  %s\n",
				r.Matrix.Name, float64(r.WallNS)/1e9, r.Summary())
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// runReplay handles -replay: re-run suite cell "MATRIX:INDEX" with
// decision tracing forced on and print its trace fingerprint; with a
// -perturb spec, run the perturbed variant too and report the first
// divergence between the two traces.
func runReplay(spec, pertSpec, level string, seeds, workers int) error {
	name, index, err := parseReplaySpec(spec)
	if err != nil {
		return err
	}
	var m sweep.Matrix
	found := false
	for _, cand := range suite(seeds) {
		if cand.Name == name {
			m, found = cand, true
			break
		}
	}
	if !found {
		return fmt.Errorf("experiments: no suite matrix named %q (see EXPERIMENTS.md for names)", name)
	}
	lvl, err := trace.ParseLevel(level)
	if err != nil {
		return err
	}
	if lvl == trace.Off {
		lvl = trace.Decisions
	}

	if pertSpec == "" {
		// No counterfactual: trace the one cell as declared. A shard of
		// Count = len(cells) owns exactly the cells with index ≡ INDEX
		// (mod Count) — that is, the one cell.
		m.TraceLevel = lvl.String()
		cells, err := m.Cells()
		if err != nil {
			return err
		}
		if index < 0 || index >= len(cells) {
			return fmt.Errorf("experiments: replay index %d outside matrix %q (%d cells)", index, name, len(cells))
		}
		r, err := sweep.Run(m, sweep.Options{Workers: workers, Shard: sweep.Shard{Index: index, Count: len(cells)}})
		if err != nil {
			return err
		}
		c := r.Cells[0]
		fmt.Printf("replay %s:%d (%s, trace=%s)\n", name, index, m.Protocol, lvl)
		printReplayCell("cell", c)
		return nil
	}

	pert, err := sweep.ParsePerturbation(pertSpec)
	if err != nil {
		return err
	}
	rr, err := sweep.Replay(m, index, pert, lvl)
	if err != nil {
		return err
	}
	fmt.Printf("replay %s:%d (%s, trace=%s, perturb %s)\n", name, index, m.Protocol, lvl, pert)
	printReplayCell("base", rr.Base)
	printReplayCell("perturbed", rr.Perturbed)
	if rr.Div == nil {
		fmt.Println("divergence: none (the perturbation changed nothing the trace observes)")
	} else {
		fmt.Printf("divergence: %s\n", rr.Div.Summary)
	}
	return nil
}

func printReplayCell(label string, c sweep.CellResult) {
	oracle := ""
	if c.Oracle != "" {
		oracle = " oracle=" + c.Oracle
	}
	fmt.Printf("  %-9s seed=%d n=%d t=%d%s verdict=%s steps=%d trace_events=%d trace_digest=%s\n",
		label, c.Seed, c.Size.N, c.Size.T, oracle, c.Verdict, c.Steps, c.TraceEvents, c.TraceDigest)
}

// parseReplaySpec splits "MATRIX:INDEX" (matrix names contain no
// colon). The index must be a non-negative integer — a negative one
// can never name a cell, so it is rejected here with usage guidance
// rather than later as a confusing out-of-range error.
func parseReplaySpec(spec string) (string, int, error) {
	i := strings.LastIndex(spec, ":")
	if i <= 0 {
		return "", 0, fmt.Errorf("experiments: bad -replay %q (want MATRIX:INDEX)", spec)
	}
	index, err := strconv.Atoi(spec[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("experiments: bad -replay index in %q (want MATRIX:INDEX): %v", spec, err)
	}
	if index < 0 {
		return "", 0, fmt.Errorf("experiments: bad -replay %q: index must be >= 0", spec)
	}
	return spec[:i], index, nil
}

// mergeSuites reads shard suite files (each a JSON array of shard
// reports, one per matrix, in suite order) and recombines them into the
// unsharded suite bytes.
func mergeSuites(paths []string) ([]byte, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiments: -merge needs shard suite files as arguments")
	}
	shards := make([][]*sweep.Report, len(paths))
	for i, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(blob, &shards[i]); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", path, err)
		}
		for j, r := range shards[i] {
			if r == nil {
				return nil, fmt.Errorf("experiments: %s: matrix %d is null", path, j)
			}
		}
		if len(shards[i]) != len(shards[0]) {
			return nil, fmt.Errorf("experiments: %s has %d matrices, %s has %d",
				paths[i], len(shards[i]), paths[0], len(shards[0]))
		}
	}
	merged := make([]*sweep.Report, len(shards[0]))
	for j := range shards[0] {
		parts := make([]*sweep.Report, len(shards))
		for i := range shards {
			parts[i] = shards[i][j]
		}
		r, err := sweep.MergeReports(parts)
		if err != nil {
			return nil, fmt.Errorf("experiments: matrix %d (%s): %w", j, parts[0].Matrix.Name, err)
		}
		merged[j] = r
	}
	return sweep.SuiteJSON(merged)
}

// compareGolden byte-compares suite bytes against a golden file (no-op
// when the path is empty).
func compareGolden(suite []byte, path string) error {
	if path == "" {
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if string(suite) != string(want) {
		return fmt.Errorf("experiments: suite differs from golden %s (got %d bytes, want %d)", path, len(suite), len(want))
	}
	fmt.Printf("suite matches golden %s\n", path)
	return nil
}
