package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fdgrid/internal/sweep"
)

// pass is one run of every matrix of the workload through sweep.Run,
// followed by rendering the workload's suite bytes with sweep.SuiteJSON.
type pass struct {
	wall    time.Duration
	cpu     time.Duration // process user+sys time during the pass
	peakRSS int64         // set by callers that sample it
	reports []*sweep.Report
	suite   []byte
	cells   int
}

// runPass runs one pass on a pool of workers; a non-nil tracer records
// its spans and layer counters.
func runPass(ms []sweep.Matrix, workers int, tr *tracer) (*pass, error) {
	p := &pass{reports: make([]*sweep.Report, len(ms))}
	passSpan := tr.open("pass", rootSpan, "")
	cpu0 := cpuTime()
	start := time.Now()
	for i, m := range ms {
		opts := sweep.Options{Workers: workers}
		var finish func()
		if tr != nil {
			var err error
			if opts.OnResult, finish, err = tr.matrix(m, passSpan); err != nil {
				return nil, err
			}
		}
		rep, err := sweep.Run(m, opts)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", m.Name, err)
		}
		if finish != nil {
			finish()
		}
		p.reports[i] = rep
		p.cells += len(rep.Cells)
	}
	renderSpan := tr.open("render", passSpan, "")
	suite, err := sweep.SuiteJSON(p.reports)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	renderNS := tr.close(renderSpan)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.suite = suite
	tr.close(passSpan)
	tr.passDone(p, renderNS)
	return p, nil
}

// gate is the correctness check applied to every pass. Each matrix's
// canonical report must equal the reference — its golden entry at seed
// 0, the first pass's own report at any other seed, so output that
// drifts between repetitions fails — and every cell must pass. A cell
// that is not a pass, or whose matrix bytes differ, counts as failed.
type gate struct {
	want      [][]byte // compact canonical report per matrix
	wantSuite []byte   // the workload's whole rendering
}

func newGate(raws []json.RawMessage, seed int64) (*gate, error) {
	g := &gate{}
	if seed != 0 {
		return g, nil
	}
	// Marshalling the raw entries re-indents them exactly as
	// sweep.SuiteJSON renders a list of reports.
	suite, err := json.MarshalIndent(raws, "", "  ")
	if err != nil {
		return nil, err
	}
	g.wantSuite = suite
	for _, raw := range raws {
		c, err := compact(raw)
		if err != nil {
			return nil, err
		}
		g.want = append(g.want, c)
	}
	return g, nil
}

func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// check returns the number of failed cells in the pass, printing the
// reason for each failing matrix to standard error.
func (g *gate) check(p *pass) (failed int, err error) {
	if g.wantSuite == nil {
		g.wantSuite = p.suite
		for _, r := range p.reports {
			b, err := r.CanonicalJSON()
			if err != nil {
				return 0, err
			}
			c, err := compact(b)
			if err != nil {
				return 0, err
			}
			g.want = append(g.want, c)
		}
	}
	same := bytes.Equal(p.suite, g.wantSuite)
	for i, r := range p.reports {
		mismatch := false
		if !same {
			b, err := r.CanonicalJSON()
			if err != nil {
				return 0, err
			}
			c, err := compact(b)
			if err != nil {
				return 0, err
			}
			mismatch = !bytes.Equal(c, g.want[i])
		}
		bad := 0
		for _, c := range r.Cells {
			if mismatch || c.Verdict != sweep.Pass {
				bad++
			}
		}
		if mismatch {
			fmt.Fprintf(os.Stderr, "suitebench: %s: report bytes differ from the reference\n", r.Matrix.Name)
		} else if bad > 0 {
			fmt.Fprintf(os.Stderr, "suitebench: %s: %d cells not pass\n", r.Matrix.Name, bad)
		}
		failed += bad
	}
	return failed, nil
}

// tally accumulates the end-to-end figures of a series of passes.
type tally struct {
	label     string // names the series in the per-pass log line
	passes    int
	attempted int
	failed    int
	cpu       time.Duration
	passRates []float64 // cells per second of each pass
	peakMB    []float64 // peak resident set size of each pass
	cellMS    []float64 // every cell's wall time
}

func (t *tally) add(p *pass, failed int) {
	rss := ""
	if p.peakRSS > 0 {
		rss = fmt.Sprintf(", %.1f MB peak rss", float64(p.peakRSS)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "suitebench: %spass %d: %d cells, %.3fs wall, %.3fs cpu%s\n",
		t.label, t.passes, p.cells, p.wall.Seconds(), p.cpu.Seconds(), rss)
	t.passes++
	t.attempted += p.cells
	t.failed += failed
	t.cpu += p.cpu
	t.peakMB = append(t.peakMB, float64(p.peakRSS)/(1<<20))
	t.passRates = append(t.passRates, float64(p.cells)/p.wall.Seconds())
	for _, r := range p.reports {
		for _, c := range r.Cells {
			t.cellMS = append(t.cellMS, float64(c.WallNS)/1e6)
		}
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the Harrell–Davis estimate of the q-quantile of
// xs: a weighted mean of the order statistics with Beta((n+1)q,
// (n+1)(1−q)) weights. Cell times cluster by system size, and a rank
// quantile that falls in the gap between two clusters jumps between
// their edges from run to run; the weighted mean moves smoothly. xs is
// reordered.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i, x := range xs {
		cur := betaCDF(float64(i+1)/float64(n), a, b)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Lentz's method).
func betaCDF(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - betaCDF(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 100000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < 1e-12 {
			break
		}
	}
	return front * f
}

// cpuTime returns the process's CPU time, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects garbage and returns freed memory to the OS, so every
// pass starts from the same heap and resident set.
func settle() { debug.FreeOSMemory() }

// rssSampler polls the process's resident set size and keeps the peak
// since the last reset. One goroutine polls until close.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

// rssEvery is the polling period: far shorter than the large cells
// whose working sets make the peak.
const rssEvery = 5 * time.Millisecond

func startRSS() (*rssSampler, error) {
	if _, err := readRSS(); err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	rss, err := readRSS()
	if err != nil {
		return
	}
	for {
		old := s.peak.Load()
		if rss <= old || s.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// reset returns the peak since the previous reset, including the
// current size, and starts a new interval from the current size.
func (s *rssSampler) reset() int64 {
	s.sample()
	peak := s.peak.Load()
	rss, _ := readRSS()
	s.peak.Store(rss)
	return peak
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// readRSS returns the resident set size from /proc/self/statm.
func readRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}
