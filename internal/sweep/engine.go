package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fdgrid/internal/sim"
	"fdgrid/internal/trace"
)

// Runner executes one cell and fills in its result. Implementations must
// be pure: build the cell's own sim.System through Cell.System, run it,
// derive the verdict. The only state a cell shares is the buffer
// capacity of its worker's sim.Arena, which Cell.System lends the cell
// and which never changes a run's bytes; nothing else is shared, so
// cells parallelize freely.
type Runner func(*Cell, *CellResult)

var (
	//detlint:allow runtoken -- the runner registry is host-side process-global state (package init + tests), not run state
	runnersMu sync.RWMutex
	runners   = make(map[string]Runner)
)

// Register installs a cell runner under a protocol name. Runners ship in
// runners.go; tests may register their own.
func Register(name string, r Runner) {
	runnersMu.Lock()
	defer runnersMu.Unlock()
	if _, dup := runners[name]; dup {
		panic(fmt.Sprintf("sweep: runner %q registered twice", name))
	}
	runners[name] = r
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func runnerFor(name string) (Runner, bool) {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	r, ok := runners[name]
	return r, ok
}

// Shard selects a deterministic slice of a matrix's cells: shard i of m
// owns exactly the cells whose index ≡ i (mod m). The zero value means
// "run everything". m independent invocations with shards 0..m−1
// together cover the matrix exactly once, and MergeReports recombines
// their reports into the bytes the unsharded run would have produced —
// the mechanism behind CI fan-out and multi-machine sweeps.
type Shard struct {
	Index, Count int
}

// enabled reports whether the shard actually restricts the run.
func (s Shard) enabled() bool { return s.Count > 0 }

func (s Shard) validate() error {
	if !s.enabled() {
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// Options configures a sweep run.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Runner overrides the registry lookup (tests).
	Runner Runner
	// Shard restricts the run to one deterministic slice of the cells
	// (zero value: run all).
	Shard Shard
	// OnResult, when set, is called once per completed cell as it
	// finishes, before Run returns. Calls arrive concurrently from the
	// pool workers and in completion order (scheduling-dependent); the
	// callback must be safe for concurrent use. The report itself stays
	// index-ordered and deterministic regardless. suitebench's per-cell
	// trace uses it to record each cell's span as it lands.
	OnResult func(CellResult)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// arenas is the host-side free list of worker arenas: a worker takes one
// when it starts and returns it when it exits, so arenas, and the buffer
// capacity they hold, survive across Run calls. It keeps at most
// GOMAXPROCS arenas, the default pool size; concurrent Run calls with
// more workers than that allocate the rest and drop them on exit.
var arenas struct {
	//detlint:allow runtoken -- host-side free list of worker arenas, touched at worker start and exit, never inside a run
	sync.Mutex
	free []*sim.Arena
}

func takeArena() *sim.Arena {
	arenas.Lock()
	defer arenas.Unlock()
	if k := len(arenas.free) - 1; k >= 0 {
		a := arenas.free[k]
		arenas.free = arenas.free[:k]
		return a
	}
	return new(sim.Arena)
}

func putArena(a *sim.Arena) {
	arenas.Lock()
	defer arenas.Unlock()
	if len(arenas.free) < runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free, a)
	}
}

// Run expands the matrix and executes every cell on a worker pool. Each
// worker owns one sim.Arena from the free list and runs cells to
// completion on sim.System instances built from it, one at a time; the
// result slice is ordered by cell index, so the aggregated report is
// identical whatever the worker count. A panicking cell (a protocol bug)
// is contained and reported as an errored cell, not a crashed sweep.
func Run(m Matrix, opt Options) (*Report, error) {
	all, err := m.Cells()
	if err != nil {
		return nil, err
	}
	if err := opt.Shard.validate(); err != nil {
		return nil, err
	}
	cells := all
	var shardMeta *ShardMeta
	if opt.Shard.enabled() {
		owned := make([]Cell, 0, len(all)/opt.Shard.Count+1)
		for _, c := range all {
			if c.Index%opt.Shard.Count == opt.Shard.Index {
				owned = append(owned, c)
			}
		}
		cells = owned
		shardMeta = &ShardMeta{Index: opt.Shard.Index, Count: opt.Shard.Count, TotalCells: len(all)}
	}
	runner := opt.Runner
	if runner == nil {
		r, ok := runnerFor(m.Protocol)
		if !ok {
			return nil, fmt.Errorf("sweep: no runner registered for protocol %q (have %v)", m.Protocol, Protocols())
		}
		runner = r
	}

	//detlint:allow wallclock -- sweep report timing: WallNS is json:"-" and never reaches canonical bytes
	start := time.Now()
	results := make([]CellResult, len(cells))
	// Lock-free work distribution: Add hands each worker a distinct
	// index. Which worker runs which cell stays scheduling-dependent —
	// but results[i] is written only by the worker that took i, and the
	// report is assembled in index order after wg.Wait, so the output is
	// deterministic regardless.
	//detlint:allow runtoken -- the worker pool's lock-free work counter; host-side, outside any run
	var next atomic.Int64

	workers := opt.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	//detlint:allow runtoken -- joins the host-side worker pool before assembling the report
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//detlint:allow runtoken -- the documented host-side worker pool: each worker runs whole cells, one System at a time from its own arena
		go func() {
			defer wg.Done()
			arena := takeArena()
			defer putArena(arena)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i] = runCell(runner, &cells[i], arena)
				if opt.OnResult != nil {
					opt.OnResult(results[i])
				}
			}
		}()
	}
	wg.Wait()

	//detlint:allow wallclock -- sweep report timing: WallNS is json:"-" and never reaches canonical bytes
	rep := &Report{Matrix: m, Cells: results, Shard: shardMeta, WallNS: time.Since(start).Nanoseconds()}
	rep.tally()
	return rep, nil
}

// runCell executes one cell, containing panics as errored results.
// When the cell asks for tracing, the recorder is created here — owned
// by the cell for its whole run, so its digest lands in the result even
// if the runner panics mid-cell. The level was validated at Cells()
// expansion (Replay validates its own), so a bad level reads as Off.
// arena, when non-nil, is the worker's, and Cell.System builds from it.
func runCell(runner Runner, c *Cell, arena *sim.Arena) (res CellResult) {
	res = CellResult{
		Index:   c.Index,
		Seed:    c.Seed,
		Size:    c.Size,
		Pattern: c.Pattern.Name,
		Combo:   c.Combo,
		Oracle:  c.Oracle.Name,
		Verdict: Pass,
	}
	c.arena = arena
	if lvl, err := trace.ParseLevel(c.TraceLevel); err == nil && lvl != trace.Off {
		c.rec = trace.New(lvl)
	}
	//detlint:allow wallclock -- per-cell report timing: WallNS is json:"-" and never reaches canonical bytes
	start := time.Now()
	defer func() {
		//detlint:allow wallclock -- per-cell report timing: WallNS is json:"-" and never reaches canonical bytes
		res.WallNS = time.Since(start).Nanoseconds()
		if r := recover(); r != nil {
			res.Verdict = Errored
			res.Detail = fmt.Sprintf("panic: %v", r)
		}
		if c.rec != nil {
			res.TraceDigest = c.rec.Digest()
			res.TraceEvents = c.rec.Len()
		}
	}()
	runner(c, &res)
	return res
}
