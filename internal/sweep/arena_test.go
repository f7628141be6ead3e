package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"fdgrid/internal/adversary"
	"fdgrid/internal/agreement"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// cellBytes runs one cell, on a System built from arena (sim.New when
// arena is nil), and returns its result's canonical JSON.
func cellBytes(t *testing.T, runner Runner, c Cell, arena *sim.Arena) []byte {
	t.Helper()
	res := runCell(runner, &c, arena)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// freshBytes runs every cell on its own sim.New System, spread over
// GOMAXPROCS goroutines, and returns each result's canonical JSON.
func freshBytes(t *testing.T, cells []Cell) [][]byte {
	t.Helper()
	out := make([][]byte, len(cells))
	var wg sync.WaitGroup
	work := make(chan int, len(cells))
	for i := range cells {
		work <- i
	}
	close(work)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				runner, _ := runnerFor(cells[i].Protocol)
				res := runCell(runner, &cells[i], nil)
				out[i], _ = json.Marshal(res)
			}
		}()
	}
	wg.Wait()
	return out
}

// checkArenaClean asserts the reclaim's hygiene on an arena between
// runs: every retained send-record, free-list, eligible, arrivals,
// hold-bucket and inbox slot, over the buffer's full capacity and not
// only its length, is the zero value, and every parked k-set round
// buffer has empty p1From/p2From.
// It reads the arena's unexported fields through reflect, so the check
// needs no test-only API in sim; a renamed field fails it loudly.
func checkArenaClean(t *testing.T, a *sim.Arena) {
	t.Helper()
	v := reflect.ValueOf(a).Elem()
	field := func(name string) reflect.Value {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("sim.Arena has no field %s", name)
		}
		return f
	}
	zeroToCap := func(what string, s reflect.Value) {
		full := s.Slice(0, s.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				t.Errorf("arena %s[%d] (len %d, cap %d) is not zero", what, i, s.Len(), s.Cap())
				return
			}
		}
	}
	zeroToCap("recs", field("recs"))
	zeroToCap("freeRecs", field("freeRecs"))
	zeroToCap("eligible", field("eligible"))
	zeroToCap("arrivals", field("arrivals"))
	for _, name := range []string{"buckets", "inboxes"} {
		list := field(name)
		for i := 0; i < list.Len(); i++ {
			zeroToCap(fmt.Sprintf("%s[%d]", name, i), list.Index(i))
		}
	}
	slots := field("slots")
	for i := 0; i < slots.Len(); i++ {
		slot := slots.Index(i)
		if slot.IsNil() {
			continue
		}
		bufs := slot.Elem()
		if bufs.Kind() != reflect.Slice {
			t.Fatalf("arena slot %d holds a %s, want parked k-set round buffers", i, bufs.Type())
		}
		for j := 0; j < bufs.Len(); j++ {
			r := bufs.Index(j).Elem()
			if !r.FieldByName("p1From").IsZero() || !r.FieldByName("p2From").IsZero() {
				t.Errorf("arena slot %d parks round buffer %d with senders still marked", i, j)
			}
		}
	}
}

// TestArenaMatchesFresh is the arena's differential test: every
// kset-omega cell of SCALE-kset and ORACLE-kset-flap (the partition
// cells, which route through hold buckets, included) and the
// ZD-repeated kset-seq cells run through one shared arena, in two
// orders: largest n first, so small runs inherit large buffers, and
// smallest n first, so large runs regrow small ones. Each result must
// be byte-equal to a fresh sim.New run of the same cell, and the arena
// must be clean after every run. Under the race detector the test keeps
// the cells with n <= 64.
func TestArenaMatchesFresh(t *testing.T) {
	var cells []Cell
	for _, name := range []string{"SCALE-kset", "ORACLE-kset-flap", "ZD-repeated"} {
		m := goldenMatrix(t, name)
		cs, err := m.Cells()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cs...)
	}
	if raceEnabled {
		// The n >= 96 cells would cost minutes under the race detector
		// and re-prove bytes the plain run proves. The n <= 64 cells
		// keep both matrices, the partition cells and kset-seq, and
		// still cross sizes in both orders.
		small := cells[:0]
		for _, c := range cells {
			if c.Size.N <= 64 {
				small = append(small, c)
			}
		}
		cells = small
	}
	fresh := freshBytes(t, cells)
	for _, order := range []struct {
		name        string
		largestMost bool
	}{{"largest-n-first", true}, {"smallest-n-first", false}} {
		t.Run(order.name, func(t *testing.T) {
			t.Parallel()
			idx := make([]int, len(cells))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				if order.largestMost {
					return cells[idx[a]].Size.N > cells[idx[b]].Size.N
				}
				return cells[idx[a]].Size.N < cells[idx[b]].Size.N
			})
			arena := new(sim.Arena)
			for _, i := range idx {
				c := cells[i]
				runner, _ := runnerFor(c.Protocol)
				if got := cellBytes(t, runner, c, arena); !bytes.Equal(got, fresh[i]) {
					t.Errorf("%s cell %d (n=%d, %s): arena run differs from a fresh run\narena: %s\nfresh: %s",
						c.Matrix, c.Index, c.Size.N, c.Pattern.Name, got, fresh[i])
				}
				checkArenaClean(t, arena)
			}
		})
	}
}

// panicLeader is an Ω oracle with a bug: from tick at on, every query
// panics, unwinding the querying k-set process mid-round.
type panicLeader struct {
	fd.Leader
	sys *sim.System
	at  sim.Time
}

func (o panicLeader) Trusted(p ids.ProcID) ids.Set {
	if o.sys.Now() >= o.at {
		panic("oracle bug")
	}
	return o.Leader.Trusted(p)
}

// TestArenaSurvivesPanickingRun: a run that panics — in a protocol, in a
// stop predicate or in a sampler — after its buffers filled up must not
// hand them back half-way. The cell reports errored, and the next cell
// on the same arena is byte-equal to a fresh run.
func TestArenaSurvivesPanickingRun(t *testing.T) {
	m := goldenMatrix(t, "ORACLE-kset-flap")
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	const boomAt = 150
	for _, where := range []string{"protocol", "stop", "sampler"} {
		t.Run(where, func(t *testing.T) {
			panicky := func(c *Cell, res *CellResult) {
				sys, err := c.System()
				if err != nil {
					panic(err)
				}
				var oracle fd.Leader = fd.NewOmega(sys, 2)
				if where == "protocol" {
					oracle = panicLeader{Leader: oracle, sys: sys, at: boomAt}
				}
				if where == "sampler" {
					sys.OnAdvance(func(now sim.Time) {
						if now >= boomAt {
							panic("sampler bug")
						}
					})
				}
				out := agreement.NewOutcome()
				for p := 1; p <= c.Size.N; p++ {
					sys.Spawn(ids.ProcID(p), agreement.KSetMain(oracle, agreement.Value(100+p), out))
				}
				sys.Run(func() bool {
					if where == "stop" && sys.Now() >= boomAt {
						panic("stop predicate bug")
					}
					return false
				})
			}
			arena := new(sim.Arena)
			runner, _ := runnerFor(cell.Protocol)
			// Warm the arena first, so the panicking run starts from
			// recycled buffers and parked round buffers.
			cellBytes(t, runner, cell, arena)
			c := cell
			if res := runCell(panicky, &c, arena); res.Verdict != Errored {
				t.Fatalf("panicking cell reported %s, want %s", res.Verdict, Errored)
			}
			checkArenaClean(t, arena)
			want := cellBytes(t, runner, cell, nil)
			if got := cellBytes(t, runner, cell, arena); !bytes.Equal(got, want) {
				t.Fatalf("cell after a panicking run differs from a fresh run\narena: %s\nfresh: %s", got, want)
			}
			checkArenaClean(t, arena)
		})
	}
}

// TestArenaFreeListConcurrentRuns: concurrent Run calls draw their
// worker arenas from one host-side free list, with more workers than it
// keeps; every report must still equal an arena-free run of the same
// cells. Under -race at several -cpu values this exercises the free
// list's lock and its GOMAXPROCS cap.
func TestArenaFreeListConcurrentRuns(t *testing.T) {
	m := Matrix{
		Name: "arena-free-list", Protocol: "kset-omega",
		Seeds: []int64{0, 1},
		Sizes: []Size{{N: 5, T: 2}, {N: 9, T: 4}, {N: 16, T: 7}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 2, Seed: 1, Start: 50, Spacing: 40},
			{Kind: adversary.KindPartition, Seed: 2, Start: 50, Window: 200},
		},
		Combos: []Combo{{Z: 2}},
		GST:    100, MaxSteps: 1_000_000,
	}
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshBytes(t, cells)
	const callers = 3
	var wg sync.WaitGroup
	reports := make([]*Report, callers)
	errs := make([]error, callers)
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = Run(m, Options{Workers: 1 + i})
		}()
	}
	wg.Wait()
	for i, r := range reports {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j, res := range r.Cells {
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh[j]) {
				t.Errorf("caller %d, cell %d: pooled run differs from a fresh run", i, j)
			}
		}
	}
}
