package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"fdgrid/internal/sweep"
)

// span is one traced interval. Spans of one cell share Cell; Count is
// set on spans that aggregate many calls into one interval (the mirror's
// oracle spans), which then start at their parent's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// rootSpan is the workload span every other span descends from.
const rootSpan = 1

// tracer keeps the traced run's spans in memory and accumulates the
// sweep-level layer counters of traced passes. All methods are no-ops
// on a nil tracer, so untraced passes share the same code path.
type tracer struct {
	origin  time.Time
	workers int

	mu    sync.Mutex // guards spans and the cell counters below: OnResult runs on pool workers
	spans []span

	passes      int
	cells       int
	cellNS      int64 // Σ cell wall time
	poolNS      int64 // Σ workers × sweep.Run wall time
	tailIdleNS  int64 // Σ worker time idle behind each matrix's last cell
	expandNS    int64
	renderNS    int64
	reportBytes int
	protoNS     map[string]int64
	protoCells  map[string]int
	rt          rtDelta
}

func newTracer(workload string, workers int) *tracer {
	tr := &tracer{
		origin:     time.Now(),
		workers:    workers,
		protoNS:    make(map[string]int64),
		protoCells: make(map[string]int),
	}
	tr.spans = append(tr.spans, span{ID: rootSpan, Name: "workload:" + workload})
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// open starts a span and returns its id.
func (tr *tracer) open(name string, parent int, cell string) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: tr.now()})
	return id
}

// close ends span id and returns its duration.
func (tr *tracer) close(id int) int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = tr.now()
	return s.End - s.Start
}

// add records a finished span and returns its id.
func (tr *tracer) add(s span) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s.ID = len(tr.spans) + 1
	tr.spans = append(tr.spans, s)
	return s.ID
}

// matrix opens the span of one sweep.Run and its expand child (a
// separate Matrix.Cells call, timed before the run). It returns the
// OnResult hook that records each cell's span — start = end − WallNS —
// and the function to call once sweep.Run has returned.
func (tr *tracer) matrix(m sweep.Matrix, parent int) (func(sweep.CellResult), func(), error) {
	mSpan := tr.open("matrix:"+m.Name, parent, "")
	eSpan := tr.open("expand", mSpan, "")
	cells, err := m.Cells()
	if err != nil {
		return nil, nil, err
	}
	tr.expandNS += tr.close(eSpan)
	runStart := tr.now()
	pass := tr.passes
	var ends []int64
	onResult := func(r sweep.CellResult) {
		end := tr.now()
		tr.add(span{
			Parent: mSpan, Name: "cell", Cell: cellID(m.Name, r.Index, pass),
			Start: end - r.WallNS, End: end,
		})
		tr.mu.Lock()
		defer tr.mu.Unlock()
		ends = append(ends, end)
		tr.cells++
		tr.cellNS += r.WallNS
		tr.protoNS[m.Protocol] += r.WallNS
		tr.protoCells[m.Protocol]++
	}
	finish := func() {
		runNS := tr.now() - runStart
		tr.close(mSpan)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.poolNS += int64(tr.workers) * runNS
		// The last completions come one per worker; the workers that
		// finish early idle until the straggler ends.
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		busy := tr.workers
		if len(cells) < busy {
			busy = len(cells)
		}
		if n := len(ends); n > 0 {
			for _, e := range ends[max(0, n-busy) : n-1] {
				tr.tailIdleNS += ends[n-1] - e
			}
		}
	}
	return onResult, finish, nil
}

func cellID(matrix string, index, pass int) string {
	return matrix + "/" + strconv.Itoa(index) + "@pass" + strconv.Itoa(pass)
}

// passDone records the render cost and size of a finished traced pass.
func (tr *tracer) passDone(p *pass, renderNS int64) {
	if tr == nil {
		return
	}
	tr.renderNS += renderNS
	tr.reportBytes = len(p.suite)
	tr.passes++
}

// write stores the spans as JSON at path.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rtNames are the runtime/metrics the traced run reads.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// rtSnap is one reading of rtNames.
type rtSnap struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	schedCounts              []uint64
	schedBuckets             []float64
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	snap := rtSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
	h := s[4].Value.Float64Histogram()
	snap.schedCounts = append([]uint64(nil), h.Counts...)
	snap.schedBuckets = h.Buckets
	return snap
}

// rtDelta is the difference of two readings.
type rtDelta struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	// schedWaits and schedWaitS estimate the goroutine scheduling waits
	// between the readings from the runtime's sampled latency
	// histogram (bucket midpoints), so both are estimates.
	schedWaits, schedWaitS float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
	for i := range b.schedCounts {
		n := float64(b.schedCounts[i] - a.schedCounts[i])
		if n == 0 {
			continue
		}
		lo, hi := b.schedBuckets[i], b.schedBuckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(hi, 1):
			mid = lo
		case math.IsInf(lo, -1):
			mid = hi
		}
		d.schedWaits += n
		d.schedWaitS += n * mid
	}
	return d
}

func (d *rtDelta) add(e rtDelta) {
	d.allocBytes += e.allocBytes
	d.allocObjects += e.allocObjects
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
	d.schedWaits += e.schedWaits
	d.schedWaitS += e.schedWaitS
}
