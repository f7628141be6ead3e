package main

import (
	"fmt"

	"fdgrid/internal/adversary"
	"fdgrid/internal/core"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
)

// t9Taus are the claimed stabilization times EXP-T9 defeats, one
// matrix (T9-tau<τ>) each.
var t9Taus = []int64{500, 2_000, 5_000}

// suite returns every experiment matrix in suite order — the order of
// the suite JSON and the golden. It is the single definition of what
// the suite runs: main runs the list, -replay resolves
// MATRIX:INDEX against it, and render reads each section's sizes,
// combos and substrates back from the finished reports.
func suite(seeds int) []sweep.Matrix {
	s := seedList(seeds)
	// The large matrices (SCALE-*, ORACLE-*) cap seeds > 2 at 2: it
	// bounds the suite's wall time and keeps their cell indices stable
	// however the suite is invoked.
	large := seedList(min(seeds, 2))

	// EXP-F1: every class of every grid line, t = 2.
	var grid []sweep.Combo
	for z := 1; z <= 3; z++ {
		for _, c := range core.GridLine(z, 2) {
			grid = append(grid, sweep.Combo{Family: c.Fam, Param: c.Param, Z: z})
		}
	}
	// EXP-F2: the whole additivity frontier x+y ≤ t+1 at t = 2.
	var frontier []sweep.Combo
	for _, p := range []struct{ x, y int }{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {1, 2}} {
		frontier = append(frontier, sweep.Combo{X: p.x, Y: p.y})
	}
	var f3Sizes []sweep.Size
	for _, n := range []int{5, 7, 9, 11} {
		f3Sizes = append(f3Sizes, sweep.Size{N: n, T: (n - 1) / 2})
	}
	wheelsParams := map[string]int64{"stable_for": 12_000, "margin": 10_000}
	baselineCrash := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 7, At: 400}}}}
	ablationCrash := []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}}

	ms := []sweep.Matrix{
		{
			Name: "F1-grid", Protocol: "kset-grid",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 900}}}},
			Combos:   grid,
			GST:      600, MaxSteps: 2_000_000,
		},
		{
			Name: "F2-additivity", Protocol: "two-wheels",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns:  []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 800}}}},
			Combos:    frontier,
			Bandwidth: 10,
			GST:       600, MaxSteps: 400_000,
			Params: wheelsParams,
		},
		// The theorem quantifies over *pairs* of oracles — any ◇S_x with
		// any ◇φ_y — so the generated dimension must reach both roles at
		// once: each pair family scripts the suspector and parameterizes
		// the querier independently, and every cell carries per-role
		// conformance verdicts (oracle_s, oracle_phi).
		{
			Name: "F2-additivity-pairs", Protocol: "two-wheels",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 800}}}},
			OraclePairFamilies: []adversary.OraclePairFamily{
				// A conforming scope-churn ◇S_2 against a maximally-late ◇φ_1.
				{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 61, Settle: []int{1, 2}},
					Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 62, Start: 20_000, Ramp: 1}},
				// A long-flapping suspector against an over-eager anarchic querier.
				{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 63, Flaps: 10, Period: 120, Settle: []int{1, 2}},
					Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 64, RatePermille: 950}},
				// Both roles ground-truth, stabilizing late and staggered.
				{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 65, Start: 8_000, Ramp: 1},
					Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 66, Start: 12_000, Ramp: 1}},
			},
			Combos:    []sweep.Combo{{X: 2, Y: 1}},
			Bandwidth: 10,
			GST:       600, MaxSteps: 160_000,
			Params: wheelsParams,
		},
		{
			Name: "F3-scaling", Protocol: "kset-omega",
			Seeds: s, Sizes: f3Sizes,
			Patterns: []sweep.CrashPattern{{Name: "last-crashes", Crashes: []sweep.CrashSpec{{Proc: 0, At: 400}}}},
			Combos:   []sweep.Combo{{Z: 2}},
			GST:      600, MaxSteps: 2_000_000,
		},
		{
			Name: "F3a-oracle-efficiency", Protocol: "kset-omega",
			Seeds: s, Sizes: []sweep.Size{{N: 7, T: 3}},
			Combos: []sweep.Combo{{Z: 2}},
			GST:    0, MaxSteps: 500_000,
			Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
		},
		{
			Name: "F3b-zero-degradation", Protocol: "kset-omega",
			Seeds: s, Sizes: []sweep.Size{{N: 7, T: 3}},
			Patterns: []sweep.CrashPattern{{Name: "two-initial",
				Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 5, At: 0}}}},
			Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
			GST:    0, MaxSteps: 500_000,
			Params: map[string]int64{"stab0": 1, "require_round1": 1, "value_base": 0},
		},
		{
			Name: "F5-lower-wheel", Protocol: "lower-wheel",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "late-crash", Crashes: []sweep.CrashSpec{{Proc: 4, At: 700}}}},
			Combos:   []sweep.Combo{{X: 2}},
			GST:      500, MaxSteps: 100_000,
			Params: map[string]int64{"mark": 80_000},
		},
		{
			Name: "F6-upper-wheel", Protocol: "two-wheels",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Combos: []sweep.Combo{{X: 2, Y: 1}},
			GST:    400, MaxSteps: 30_000,
			Params: map[string]int64{"mark": 22_500, "require_nonquiescent": 1, "margin": 10_000},
		},
		{
			Name: "F8-psi-omega", Protocol: "psi-omega",
			Seeds: s, Sizes: []sweep.Size{{N: 6, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "two-crashes",
				Crashes: []sweep.CrashSpec{{Proc: 1, At: 200}, {Proc: 2, At: 500}}}},
			Combos:    []sweep.Combo{{Y: 2, Z: 1}, {Y: 1, Z: 2}, {Y: 0, Z: 3}},
			Bandwidth: 1,
			GST:       0, MaxSteps: 6_000,
			Params: map[string]int64{"margin": 1_000},
		},
		{
			Name: "F9-add-s", Protocol: "add-s",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "mid-crash", Crashes: []sweep.CrashSpec{{Proc: 3, At: 800}}}},
			Combos: []sweep.Combo{
				{Name: "memory", X: 2, Y: 1},
				{Name: "heartbeat", X: 2, Y: 1},
				{Name: "abd", X: 2, Y: 1},
			},
			GST: 0, MaxSteps: 120_000,
			Params: map[string]int64{"perpetual": 1, "margin": 10_000},
		},
		{
			Name: "F9-add-s-eventual", Protocol: "add-s",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "early-crash", Crashes: []sweep.CrashSpec{{Proc: 2, At: 500}}}},
			Combos:   []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
			GST:      2_000, MaxSteps: 150_000,
			Params: map[string]int64{"perpetual": 0, "margin": 10_000},
		},
		// add-s consumes two oracles, so the generated dimension reaches
		// it only through paired scripts — one per role, each
		// conformance-checked against its declared class.
		{
			Name: "F9-add-s-pairs", Protocol: "add-s",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Patterns: []sweep.CrashPattern{{Name: "mid-crash", Crashes: []sweep.CrashSpec{{Proc: 3, At: 800}}}},
			OraclePairFamilies: []adversary.OraclePairFamily{
				// A conforming scope-churn ◇S_2 against a maximally-late ◇φ_1.
				{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 71, Settle: []int{1, 2}},
					Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 72, Start: 16_000, Ramp: 1}},
				// A long-flapping suspector against an over-eager anarchic querier.
				{S: adversary.OracleFamily{Kind: adversary.OracleScopeChurn, X: 2, Seed: 73, Flaps: 8, Period: 100, Settle: []int{1, 2}},
					Phi: adversary.OracleFamily{Kind: adversary.OracleAnarchyBurst, Y: 1, Seed: 74, RatePermille: 950}},
				// Both roles ground-truth, stabilizing late and staggered.
				{S: adversary.OracleFamily{Kind: adversary.OracleLateStab, X: 2, Seed: 75, Start: 6_000, Ramp: 1},
					Phi: adversary.OracleFamily{Kind: adversary.OracleLateStab, Y: 1, Seed: 76, Start: 10_000, Ramp: 1}},
			},
			Combos: []sweep.Combo{{Name: "memory", X: 2, Y: 1}},
			GST:    0, MaxSteps: 200_000,
			Params: map[string]int64{"perpetual": 0, "margin": 10_000},
		},
		{
			Name: "T5-tightness", Protocol: "kset-omega",
			Seeds: seedList(seeds * 4), Sizes: []sweep.Size{{N: 5, T: 2}},
			Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 2}}},
			GST:    0, MaxSteps: 500_000,
			Params: map[string]int64{"stab0": 1, "value_base": 0},
		},
		{
			Name: "T8-necessity", Protocol: "two-wheels",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}},
			Combos: []sweep.Combo{{X: 1, Y: 0}},
			GST:    600, MaxSteps: 200_000,
			Params: map[string]int64{"stable_for": 12_000, "margin": 10_000, "expect_tight": 1},
		},
		{
			Name: "T8-O1", Protocol: "phi-o1",
			Seeds: []int64{1}, Sizes: []sweep.Size{{N: 6, T: 3}},
			Patterns: []sweep.CrashPattern{{Name: "f=t-y",
				Crashes: []sweep.CrashSpec{{Proc: 1, At: 100}, {Proc: 2, At: 150}}}},
			Combos:    []sweep.Combo{{Y: 1}},
			Bandwidth: 1, GST: 0, MaxSteps: 2_000,
			Params: map[string]int64{"at": 1_500, "ring_x": 3},
		},
	}
	for _, tau := range t9Taus {
		ms = append(ms, sweep.Matrix{
			Name: fmt.Sprintf("T9-tau%d", tau), Protocol: "irreducibility",
			Seeds: []int64{9}, Sizes: []sweep.Size{{N: 5, T: 2}},
			Combos:    []sweep.Combo{{X: 3, Y: 1, Region: []int{4, 5}}},
			Bandwidth: 1, MaxSteps: sim.Time(tau) + 2_000,
			Params: map[string]int64{"tau": tau, "crash_at": 100, "slack": 2_000},
		})
	}
	return append(ms,
		sweep.Matrix{
			Name: "baseline-fig3", Protocol: "kset-omega",
			Seeds: s, Sizes: []sweep.Size{{N: 7, T: 3}}, Patterns: baselineCrash,
			Combos: []sweep.Combo{{Z: 1}},
			GST:    600, MaxSteps: 2_000_000,
			Params: map[string]int64{"value_base": 0},
		},
		sweep.Matrix{
			Name: "baseline-rotating-coordinator", Protocol: "consensus-ds",
			Seeds: s, Sizes: []sweep.Size{{N: 7, T: 3}}, Patterns: baselineCrash,
			GST: 600, MaxSteps: 2_000_000,
		},
		sweep.Matrix{
			Name: "ZD-repeated", Protocol: "kset-seq",
			Seeds: s, Sizes: []sweep.Size{{N: 7, T: 3}},
			Patterns: []sweep.CrashPattern{{Name: "two-initial",
				Crashes: []sweep.CrashSpec{{Proc: 2, At: 0}, {Proc: 6, At: 0}}}},
			Combos: []sweep.Combo{{Z: 2, Trusted: []int{1, 4}}},
			GST:    0, MaxSteps: 4_000_000,
			Params: map[string]int64{"stab0": 1, "instances": 4},
		},
		sweep.Matrix{
			Name: "ABL-single-wheel", Protocol: "single-wheel",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}}, Patterns: ablationCrash,
			GST: 500, MaxSteps: 150_000,
			Params: wheelsParams,
		},
		sweep.Matrix{
			Name: "ABL-two-wheels-y0", Protocol: "two-wheels",
			Seeds: s, Sizes: []sweep.Size{{N: 5, T: 2}}, Patterns: ablationCrash,
			Combos: []sweep.Combo{{X: 3, Y: 0}},
			GST:    500, MaxSteps: 150_000,
			Params: wheelsParams,
		},
		// EXP-SCALE: the sizes the paper never ran (its arguments are
		// size-generic) against the schedule families the adversary
		// package generates.
		sweep.Matrix{
			Name: "SCALE-kset", Protocol: "kset-omega",
			Seeds: large,
			Sizes: []sweep.Size{{N: 64, T: 31}, {N: 96, T: 47}, {N: 128, T: 63}, {N: 192, T: 95}, {N: 256, T: 127}},
			AdversaryFamilies: []adversary.Family{
				{Kind: adversary.KindStaggered, Count: 8, Variants: 2, Seed: 11, Start: 100, Spacing: 60},
				{Kind: adversary.KindClustered, Count: 8, Seed: 12, Start: 150},
				{Kind: adversary.KindPartition, Seed: 13, Start: 100, Window: 400},
			},
			Combos: []sweep.Combo{{Z: 2}},
			GST:    200, MaxSteps: 4_000_000,
		},
		sweep.Matrix{
			Name: "SCALE-psi", Protocol: "psi-omega",
			Seeds: large, Sizes: []sweep.Size{{N: 96, T: 6}, {N: 128, T: 6}, {N: 192, T: 6}, {N: 256, T: 6}},
			AdversaryFamilies: []adversary.Family{
				{Kind: adversary.KindCascade, Count: 3, Variants: 2, Seed: 21, Start: 100, Spacing: 100},
				{Kind: adversary.KindClustered, Count: 4, Seed: 22, Start: 200},
			},
			Combos: []sweep.Combo{{Y: 4, Z: 3}}, Bandwidth: 1,
			GST: 0, MaxSteps: 6_000,
			Params: map[string]int64{"margin": 1_000},
		},
		// EXP-ORACLE: generated hostile-oracle families as a sweep
		// dimension. Ω_z timelines flapping under the Fig. 3 k-set
		// algorithm, n up to 128; EXP-CF replays one of its cells.
		sweep.Matrix{
			Name: "ORACLE-kset-flap", Protocol: "kset-omega",
			Seeds: large,
			Sizes: []sweep.Size{{N: 32, T: 15}, {N: 64, T: 31}, {N: 128, T: 63}},
			Patterns: []sweep.CrashPattern{{Name: "late-crash",
				Crashes: []sweep.CrashSpec{{Proc: 0, At: 600}}}},
			OracleFamilies: []adversary.OracleFamily{
				{Kind: adversary.OracleLeaderFlap, Z: 2, Variants: 2, Seed: 31,
					Start: 50, Period: 80, Flaps: 6, Settle: []int{1, 2}},
				{Kind: adversary.OracleLateStab, Variants: 2, Seed: 32, Start: 200, Ramp: 300},
			},
			Combos: []sweep.Combo{{Z: 2}},
			GST:    200, MaxSteps: 4_000_000,
		},
		// Bursty / late-stabilizing ◇φ under the message-free Ψ→Ω chain.
		sweep.Matrix{
			Name: "ORACLE-psi-burst", Protocol: "psi-omega",
			Seeds: large,
			Sizes: []sweep.Size{{N: 32, T: 6}, {N: 64, T: 6}, {N: 128, T: 6}},
			Patterns: []sweep.CrashPattern{{Name: "two-crashes",
				Crashes: []sweep.CrashSpec{{Proc: 1, At: 200}, {Proc: 2, At: 500}}}},
			OracleFamilies: []adversary.OracleFamily{
				{Kind: adversary.OracleAnarchyBurst, Variants: 3, Seed: 41,
					Start: 50, Period: 60, Flaps: 8, RatePermille: 900},
				{Kind: adversary.OracleLateStab, Variants: 2, Seed: 42, Start: 400, Ramp: 400},
			},
			Combos: []sweep.Combo{{Y: 4, Z: 3}}, Bandwidth: 1,
			GST: 0, MaxSteps: 6_000,
			Params: map[string]int64{"margin": 1_000},
		},
		// Scope-churn ◇S_x scripts driving the two-wheels addition
		// through the scripted-suspector driver.
		sweep.Matrix{
			Name: "ORACLE-wheels-churn", Protocol: "two-wheels",
			Seeds: large,
			Sizes: []sweep.Size{{N: 5, T: 2}},
			OracleFamilies: []adversary.OracleFamily{
				{Kind: adversary.OracleScopeChurn, X: 2, Variants: 3, Seed: 51, Settle: []int{1, 2}},
			},
			Combos: []sweep.Combo{{X: 2, Y: 1}},
			GST:    400, MaxSteps: 60_000,
			Params: wheelsParams,
		},
	)
}

func seedList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
