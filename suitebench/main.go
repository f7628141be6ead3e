// Command suitebench is the suite-level benchmark: it runs one workload
// — a slice of the experiment suite's matrices, read from the committed
// suite golden — through sweep.Run on a pool of one worker per CPU,
// checks every cell's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output. It measures the program from outside only:
// it times calls into public functions and reads runtime/metrics.
//
// Run it from the repository root (suitebench/run.sh builds it first):
//
//	bash suitebench/run.sh --workload scale-kset --seed 0 --seconds 20 --trace 0
//
// See suitebench/README.md for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fdgrid/internal/adversary"
	"fdgrid/internal/sweep"
)

// A run repeats its set-up setupReps times at start and setupPerPass
// times before every pass, spreading the samples over the whole run;
// setup_s is their median.
const (
	setupReps    = 11
	setupPerPass = 6
)

// minCells is the fewest cells a run measures, so that at least ten
// cells lie beyond cell_ms.p90.
const minCells = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// bench is one benchmark invocation.
type bench struct {
	w         workload
	seed      int64
	seconds   time.Duration
	workers   int
	ms        []sweep.Matrix
	raws      []json.RawMessage
	minPasses int
	setupS    []float64 // set-up times
	advMS     float64   // median adversary expansion time (traced runs)
}

func main() {
	name := flag.String("workload", "", "workload: scale-kset, oracle-psi or paper-figs")
	seed := flag.Int64("seed", 0, "shift added to every matrix's seeds (0 runs the suite's cells)")
	seconds := flag.Int("seconds", 20, "how long the passes are measured")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "suitebench: --trace %d: want 0 or 1\n", *traced)
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "suitebench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs failed the correctness check")

func run(name string, seed int64, seconds int, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	entries, err := loadGolden(suiteGolden)
	if err != nil {
		return err
	}
	if err := checkCoverage(entries); err != nil {
		return err
	}
	b := &bench{w: w, seed: seed, seconds: time.Duration(seconds) * time.Second, workers: runtime.NumCPU()}
	if err := b.setup(setupReps, traced); err != nil {
		return err
	}
	var res *result
	if traced {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// setup runs the benchmark's set-up — decode the golden, select and
// seed-shift the workload's matrices, expand every matrix — reps times,
// recording each time. Traced runs also time the adversary generators
// alone.
func (b *bench) setup(reps int, traced bool) error {
	var adv []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		entries, err := loadGolden(suiteGolden)
		if err != nil {
			return err
		}
		ms, raws := selectWorkload(entries, b.w, b.seed)
		cells := 0
		for _, m := range ms {
			cs, err := m.Cells()
			if err != nil {
				return err
			}
			cells += len(cs)
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		b.ms, b.raws = ms, raws
		b.minPasses = (minCells + cells - 1) / cells
		if traced {
			start = time.Now()
			if err := expandAdversaries(ms); err != nil {
				return err
			}
			adv = append(adv, float64(time.Since(start))/1e6)
		}
	}
	if traced {
		b.advMS = median(adv)
	}
	return nil
}

// expandAdversaries runs the adversary schedule and oracle generators
// of every matrix at every size, as Matrix.Cells does.
func expandAdversaries(ms []sweep.Matrix) error {
	for _, m := range ms {
		for _, size := range m.Sizes {
			if len(m.AdversaryFamilies) > 0 {
				if _, err := adversary.NewScheduleGen(size.N, size.T).ExpandAll(m.AdversaryFamilies); err != nil {
					return err
				}
			}
			if len(m.OracleFamilies) > 0 || len(m.OraclePairFamilies) > 0 {
				if _, err := adversary.NewOracleGen(size.N, size.T).ExpandSuite(m.OracleFamilies, m.OraclePairFamilies); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// untraced measures the end-to-end metrics: passes run back to back
// until the measuring time is over and at least minPasses ran.
func (b *bench) untraced() (*result, error) {
	g, err := newGate(b.raws, b.seed)
	if err != nil {
		return nil, err
	}
	rss, err := startRSS()
	if err != nil {
		return nil, err
	}
	defer rss.close()
	var t tally
	deadline := time.Now().Add(b.seconds)
	for t.passes < b.minPasses || time.Now().Before(deadline) {
		if err := b.setup(setupPerPass, false); err != nil {
			return nil, err
		}
		settle()
		rss.reset()
		p, err := runPass(b.ms, b.workers, nil)
		if err != nil {
			return nil, err
		}
		p.peakRSS = rss.reset()
		failed, err := g.check(p)
		if err != nil {
			return nil, err
		}
		t.add(p, failed)
	}

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	cellMS := t.cellMS
	p50 := percentile(cellMS, 0.50)
	p90 := percentile(cellMS, 0.90)
	beyond := 0
	for _, v := range cellMS {
		if v > p90 {
			beyond++
		}
	}
	res.put("setup_s", "s", median(b.setupS))
	res.put("cells_per_s", "1/s", median(t.passRates))
	res.put("cell_ms.p50", "ms", p50)
	res.put("cell_ms.p90", "ms", p90)
	res.put("cpu_ms_per_cell", "ms", float64(t.cpu)/1e6/float64(t.attempted))
	res.put("peak_rss_mb", "MB", median(t.peakMB))
	res.put("pass_ratio", "ratio", float64(t.attempted-t.failed)/float64(t.attempted))
	fmt.Fprintf(os.Stderr, "suitebench: %s seed %d: %d passes, %d cells (%d beyond p90), %d workers, fail_ratio %g\n",
		b.w.name, b.seed, t.passes, t.attempted, beyond, b.workers, float64(t.failed)/float64(t.attempted))
	printMetrics(res)
	return res, nil
}

// traced measures the per-layer metrics. Untraced and traced passes
// alternate, so bench.trace_overhead_frac compares like with like; the
// mirror then rebuilds the workload's dominant matrix cell by cell.
func (b *bench) traced() (*result, error) {
	g, err := newGate(b.raws, b.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(b.w.name, b.workers)
	plain, traced := tally{label: "untraced "}, tally{label: "traced "}
	var last *pass
	deadline := time.Now().Add(b.seconds)
	for traced.passes < 1 || time.Now().Before(deadline) {
		for _, tracing := range []bool{false, true} {
			settle()
			var ptr *tracer
			var before rtSnap
			if tracing {
				ptr = tr
				before = readRT()
			}
			p, err := runPass(b.ms, b.workers, ptr)
			if err != nil {
				return nil, err
			}
			failed, err := g.check(p)
			if err != nil {
				return nil, err
			}
			if tracing {
				tr.rt.add(before.to(readRT()))
				traced.add(p, failed)
				last = p
			} else {
				plain.add(p, failed)
			}
		}
	}
	var mirrorResults []sweep.CellResult
	var mirror sweep.Matrix
	for i, m := range b.ms {
		if m.Name == b.w.mirror {
			mirror, mirrorResults = m, last.reports[i].Cells
		}
	}
	ms, mirrorErr := runMirror(mirror, mirrorResults, tr)
	tr.spans[rootSpan-1].End = tr.now()

	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	res := &result{Correct: failed == 0 && mirrorErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if mirrorErr != nil {
		fmt.Fprintln(os.Stderr, "suitebench: traced run invalid:", mirrorErr)
		ms = &mirrorStats{}
	}
	b.layerMetrics(res, tr, ms)
	res.put("bench.trace_overhead_frac", "frac", 1-median(traced.passRates)/median(plain.passRates))

	spans := fmt.Sprintf(".bench_build/suitebench/spans-%s-seed%d.json", b.w.name, b.seed)
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "suitebench: %s seed %d traced: %d plain + %d traced passes, %d mirrored cells, %d spans in %s\n",
		b.w.name, b.seed, plain.passes, traced.passes, ms.cells, len(tr.spans), spans)
	printMetrics(res)
	return res, nil
}

// tracedProtocols are the protocols whose mean cell wall time is a
// per-layer metric; a workload without the protocol reports 0.
var tracedProtocols = []string{"kset-omega", "psi-omega", "two-wheels", "add-s", "kset-grid"}

// layerMetrics fills the per-layer metrics from the traced passes and
// the mirror. Probe times are corrected by the cost of the clock reads
// the probes add (clockNS per read).
func (b *bench) layerMetrics(res *result, tr *tracer, ms *mirrorStats) {
	passes := float64(tr.passes)
	cells := float64(tr.cells)
	res.put("sweep.pool_busy_frac", "frac", float64(tr.cellNS)/float64(tr.poolNS))
	res.put("sweep.tail_idle_ms", "ms", float64(tr.tailIdleNS)/passes/1e6)
	res.put("sweep.expand_ms", "ms", float64(tr.expandNS)/passes/1e6)
	res.put("adversary.expand_ms", "ms", b.advMS)
	res.put("sweep.render_ms", "ms", float64(tr.renderNS)/passes/1e6)
	res.put("sweep.report_bytes", "bytes", float64(tr.reportBytes))
	for _, p := range tracedProtocols {
		res.put("cell."+p+".ms", "ms", float64(tr.protoNS[p])/float64(tr.protoCells[p])/1e6)
	}
	res.put("cell.alloc_kb", "KB", float64(tr.rt.allocBytes)/cells/1024)
	res.put("cell.alloc_objects", "count", float64(tr.rt.allocObjects)/cells)
	res.put("gc.cpu_frac", "frac", tr.rt.gcCPU/tr.rt.totalCPU)

	c := clockNS()
	n := float64(ms.cells)
	outerNS := float64(ms.red.ns + ms.fd.ns - ms.fdInRed.ns)
	outerCalls := float64(ms.red.calls + ms.fd.calls - ms.fdInRed.calls)
	simSelf := math.Max(0, float64(ms.total.runNS)-outerNS-c*outerCalls)
	fdNS := math.Max(0, float64(ms.fd.ns)-c*float64(ms.fd.calls))
	redSelf := math.Max(0, float64(ms.red.ns-ms.fdInRed.ns)-c*float64(ms.red.calls+ms.fdInRed.calls))
	res.put("mirror.cells", "count", n)
	res.put("sim.new_us", "us", float64(ms.total.newNS)/n/1e3)
	res.put("sim.run_ms", "ms", simSelf/n/1e6)
	res.put("sim.ns_per_delivery", "ns", simSelf/float64(ms.total.delivered))
	res.put("sim.ns_per_tick", "ns", simSelf/float64(ms.total.ticks))
	res.put("sim.sched_waits", "count", ms.total.sched.schedWaits)
	res.put("sim.sched_wait_ms", "ms", ms.total.sched.schedWaitS*1e3)
	res.put("sim.ticks", "count", float64(ms.total.ticks))
	res.put("sim.vtime", "ticks", float64(ms.total.steps))
	res.put("sim.msgs_sent", "count", float64(ms.total.sent))
	res.put("sim.msgs_delivered", "count", float64(ms.total.delivered))
	res.put("sim.msgs_dropped", "count", float64(ms.total.dropped))
	res.put("sim.delivery_ratio", "frac", float64(ms.total.delivered)/float64(ms.total.sent))
	res.put("agreement.max_round", "count", float64(ms.total.maxRound))
	res.put("agreement.msgs_per_decision", "count", float64(ms.total.sent)/float64(ms.total.decisions))
	res.put("fd.queries", "count", float64(ms.fd.calls))
	res.put("fd.query_ns", "ns", fdNS/float64(ms.fd.calls))
	res.put("reduction.calls", "count", float64(ms.red.calls))
	res.put("reduction.trusted_ns", "ns", redSelf/float64(ms.red.calls))
	res.put("fd.check_ms", "ms", float64(ms.total.checkNS)/n/1e6)
}

// clockNS estimates the cost of one time.Now call, the overhead each
// probe adds per clock read: the cheapest of a few timed loops.
func clockNS() float64 {
	const iters = 1 << 16
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		start := time.Now()
		var sink time.Duration
		for i := 0; i < iters; i++ {
			sink += time.Since(time.Now())
		}
		per := float64(time.Since(start)) / (2 * iters)
		if sink >= 0 && per < best {
			best = per
		}
	}
	return best
}

// printMetrics writes every metric by name and unit to standard error.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
