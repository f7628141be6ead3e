package main

import (
	"fmt"
	"strings"

	"fdgrid/internal/cliutil"
	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
	"fdgrid/internal/trace"
)

// reportSet indexes a finished suite by matrix name.
type reportSet map[string]*sweep.Report

// render formats the finished, unsharded suite reports as
// EXPERIMENTS.md in one pass. Each section looks its reports up by
// matrix name and reads sizes, combos and substrates from r.Matrix;
// EXP-CF replays one ORACLE-kset-flap cell. The markdown is a pure
// function of the reports: no host timing enters it.
func render(reports []*sweep.Report) (string, error) {
	rs := make(reportSet, len(reports))
	for _, r := range reports {
		rs[r.Matrix.Name] = r
	}
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/experiments`" + `. Every experiment of
DESIGN.md §5 is a declarative sweep.Matrix (internal/sweep): its cells —
seed × size × crash pattern × class combination — run in parallel, each
on an isolated simulated asynchronous system AS[n,t] (internal/sim)
against ground-truth oracles (internal/fd), and the verdicts aggregate
into the tables below next to the paper's claim. Virtual time is in
scheduler ticks; message counts are network-level sends. The simulator
is lockstep-deterministic, so every number here is reproducible.
Absolute numbers are simulator-specific; the *shapes* (who solves what,
parameter frontiers, single-round fast paths, quiescence) are the
reproduction targets.

`)
	expF1(&b, rs)
	expF2(&b, rs)
	expF3(&b, rs)
	expF3ab(&b, rs)
	expF4(&b)
	expF5(&b, rs)
	expF6(&b, rs)
	expF8(&b, rs)
	expF9(&b, rs)
	expT5(&b, rs)
	expT8(&b, rs)
	expT9(&b, rs)
	expBaselines(&b, rs)
	expRepeated(&b, rs)
	expAblation(&b, rs)
	expScale(&b, rs)
	expOracle(&b, rs)
	if err := expCounterfactual(&b, rs["ORACLE-kset-flap"].Matrix); err != nil {
		return "", err
	}
	return b.String(), nil
}

func section(b *strings.Builder, title, claim string) {
	fmt.Fprintf(b, "## %s\n\n**Paper claim.** %s\n\n", title, claim)
}

func verdict(b *strings.Builder, ok bool, detail string) {
	status := "REPRODUCED"
	if !ok {
		status = "FAILED"
	}
	fmt.Fprintf(b, "\n**Measured.** %s — %s\n\n", status, detail)
}

// group collects the cells of one combo (matrix order is combo-major,
// seed-minor, so a combo's cells are contiguous).
func group(r *sweep.Report, combo sweep.Combo) []sweep.CellResult {
	var out []sweep.CellResult
	for _, c := range r.Cells {
		if c.Combo.String() == combo.String() && c.Size == r.Matrix.Sizes[0] {
			out = append(out, c)
		}
	}
	return out
}

// bySize collects the cells of one size.
func bySize(r *sweep.Report, size sweep.Size) []sweep.CellResult {
	var out []sweep.CellResult
	for _, c := range r.Cells {
		if c.Size == size {
			out = append(out, c)
		}
	}
	return out
}

func allPass(cells []sweep.CellResult) bool {
	for _, c := range cells {
		if c.Verdict != sweep.Pass {
			return false
		}
	}
	return true
}

func avgSteps(cells []sweep.CellResult) int64 {
	var s int64
	for _, c := range cells {
		s += int64(c.Steps)
	}
	return s / int64(len(cells))
}

func avgMsgs(cells []sweep.CellResult) int64 {
	var s int64
	for _, c := range cells {
		s += c.Messages
	}
	return s / int64(len(cells))
}

func avgMeasure(cells []sweep.CellResult, name string) int64 {
	var s int64
	for _, c := range cells {
		s += c.Measures[name]
	}
	return s / int64(len(cells))
}

func avgRounds(cells []sweep.CellResult) int64 {
	var rounds int64
	for _, c := range cells {
		rounds += int64(c.MaxRound)
	}
	return rounds / int64(len(cells))
}

func maxOf(cells []sweep.CellResult, f func(sweep.CellResult) int) int {
	m := 0
	for _, c := range cells {
		if v := f(c); v > m {
			m = v
		}
	}
	return m
}

// expF1: the grid.
func expF1(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F1 · Fig. 1 — the grid of classes",
		"Every class on line z of the grid solves z-set agreement; "+
			"line z contains S_{t−z+2}, ◇S_{t−z+2}, Ω_z, φ_{t−z+1}, ◇φ_{t−z+1} (and Ψ_{t−z+1}).")
	r := rs["F1-grid"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"line z", "class", "runs", "decided", "max distinct", "max round", "avg vticks", "ok"}}
	for _, combo := range r.Matrix.Combos {
		cells := group(r, combo)
		tab.Add(combo.Z, combo.Class().String(), len(cells),
			cells[len(cells)-1].Decisions,
			maxOf(cells, func(c sweep.CellResult) int { return len(c.Decided) }),
			maxOf(cells, func(c sweep.CellResult) int { return c.MaxRound }),
			avgSteps(cells), allPass(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "every grid cell decides with at most z distinct values (n=5, t=2, one late crash, hostile oracles before GST=600)")
}

// expF2: additivity sweep.
func expF2(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F2 · Fig. 2 / Theorem 8 — additivity ◇S_x + ◇φ_y → Ω_z",
		"The two-wheels algorithm adds any ◇S_x and ◇φ_y into Ω_z with exactly z = t+2−x−y.")
	r := rs["F2-additivity"]
	t := r.Matrix.Sizes[0].T
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"x", "y", "z=t+2−x−y", "Ω_z check", "Ω_{z−1} check", "avg stabilization vtick", "avg msgs"}}
	for _, combo := range r.Matrix.Combos {
		cells := group(r, combo)
		z := t + 2 - combo.X - combo.Y
		tighter := "n/a"
		if z > 1 {
			if avgMeasure(cells, "z_minus_1_passes") > 0 {
				tighter = "passes (resting set smaller than z)"
			} else {
				tighter = "fails (size z)"
			}
		}
		tab.Add(combo.X, combo.Y, z, allPass(cells), tighter,
			avgMeasure(cells, "stabilization"), avgMsgs(cells))
	}
	b.WriteString(tab.String())

	rPair := rs["F2-additivity-pairs"]
	tabP := &cliutil.Table{Markdown: true, Headers: []string{
		"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "Ω_1 check", "avg stabilization vtick"}}
	for _, g := range oracleGroups(rPair) {
		tabP.Add(g.oracle, g.cells[0].OracleClass, roleOf(g.cells, sRole), roleOf(g.cells, phiRole),
			len(g.cells), allPass(g.cells), avgMeasure(g.cells, "stabilization"))
	}
	b.WriteString("\n")
	b.WriteString(tabP.String())
	verdict(b, r.OK() && rPair.OK(),
		"the emulated output satisfies Ω_{t+2−x−y} across the whole frontier x+y ≤ t+1, "+
			"including under generated hostile oracle pairs driving both roles")
}

// expF3: k-set scaling.
func expF3(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F3 · Fig. 3 — Ω_z-based k-set agreement",
		"The algorithm solves k-set agreement for z ≤ k, t < n/2, with two communication steps per round.")
	r := rs["F3-scaling"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"n", "t", "z", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, size := range r.Matrix.Sizes {
		cells := bySize(r, size)
		tab.Add(size.N, size.T, r.Matrix.Combos[0].Z, avgRounds(cells), avgSteps(cells), avgMsgs(cells), allPass(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "2-set agreement reached at every size; decision latency tracks the pre-GST anarchy window, messages grow ~n² per round")
}

// expF3ab: oracle efficiency and zero degradation.
func expF3ab(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F3a/b · §3.2 — oracle-efficiency and zero-degradation",
		"With a perfect Ω_k the algorithm decides in one round (two steps) when there is no crash, "+
			"and still in one round when crashes are initial only (zero degradation).")
	ra, rb := rs["F3a-oracle-efficiency"], rs["F3b-zero-degradation"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{"scenario", "runs", "all decided round 1"}}
	tab.Add("perfect oracle, no crash (oracle-efficiency)", len(ra.Cells), ra.OK())
	tab.Add("perfect oracle, 2 initial crashes (zero-degradation)", len(rb.Cells), rb.OK())
	b.WriteString(tab.String())
	verdict(b, ra.OK() && rb.OK(), "single-round fast path in both scenarios")
}

// expF4: rings (static enumeration — no simulation).
func expF4(b *strings.Builder) {
	section(b, "EXP-F4 · Fig. 4 — the common ring of candidate sets",
		"All processes scan the same infinite sequence ℓ¹₁…ℓ¹ₓ, ℓ²₁… over the x-subsets (and (L,Y) pairs).")
	tab := &cliutil.Table{Markdown: true, Headers: []string{"ring", "n", "params", "positions", "invariants"}}
	r1 := ids.NewXRing(9, 4)
	tab.Add("lower (ℓ, X)", 9, "x=4", r1.Len(), "leader ∈ X, |X| = x, cyclic (property-tested)")
	r2 := ids.NewLYRing(9, 4, 2)
	tab.Add("upper (L, Y)", 9, "|Y|=4, |L|=2", r2.Len(), "L ⊆ Y, sizes fixed, cyclic (property-tested)")
	b.WriteString(tab.String())
	verdict(b, true, "enumeration invariants hold (see internal/ids property tests)")
}

// expF5: lower wheel.
func expF5(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F5 · Fig. 5 — the lower wheel (◇S_x → representatives)",
		"The wheel stabilizes on a pair (ℓ, X) per Theorem 6, and is quiescent: only finitely many x_move messages are sent (Corollary 1).")
	r := rs["F5-lower-wheel"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"seed", "stable pair reached", "x_move sends (80% mark)", "x_move sends (end)", "quiescent"}}
	for _, c := range r.Cells {
		tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["xmove_at_mark"],
			c.Measures["xmove_end"], c.Measures["xmove_at_mark"] == c.Measures["xmove_end"])
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "positions agree across correct processes and x_move traffic stops")
}

// expF6: upper wheel.
func expF6(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F6 · Figs. 6–7 — the upper wheel (adding ◇φ_y)",
		"The combined wheels output Ω_z; the upper wheel is *not* quiescent — correct processes keep exchanging inquiry/response forever (§4.2.2 remark).")
	r := rs["F6-upper-wheel"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"seed", "Ω_1 check", "inquiries (75% mark)", "inquiries (end)", "still inquiring"}}
	for _, c := range r.Cells {
		tab.Add(c.Seed, c.Verdict == sweep.Pass, c.Measures["inquiries_at_mark"],
			c.Measures["inquiries_end"], c.Measures["inquiries_end"] > c.Measures["inquiries_at_mark"])
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "Ω_z emulated while inquiry traffic continues (non-quiescent by design)")
}

// expF8: Ψ→Ω.
func expF8(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F8 · Fig. 8 — Ψ_y → Ω_z (y+z > t)",
		"The chain construction turns any Ψ_y into Ω_z when y+z > t, with no messages at all (Theorem 13).")
	r := rs["F8-psi-omega"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{"y", "z", "crashes", "Ω_z check", "msgs"}}
	for _, combo := range r.Matrix.Combos {
		cells := group(r, combo)
		tab.Add(combo.Y, combo.Z, "{1@200, 2@500}", allPass(cells), avgMsgs(cells))
	}
	b.WriteString(tab.String())
	verdict(b, r.OK(), "local chain queries suffice; zero message cost")
}

// expF9: S_x + φ_y → S.
func expF9(b *strings.Builder, rs reportSet) {
	section(b, "EXP-F9 · Fig. 9 — the addition S_x + φ_y → S_n (x+y > t)",
		"The register-based algorithm adds S_x and φ_y into S = S_n (eventual flavor: ◇S_x + ◇φ_y → ◇S), over shared memory or its message-passing translations.")
	r, rEvt := rs["F9-add-s"], rs["F9-add-s-eventual"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"substrate", "inputs", "output class check", "ok"}}
	for _, combo := range r.Matrix.Combos {
		cells := group(r, combo)
		tab.Add(combo.Name, "S_2 + φ_1 (t=2: x+y=3 > t)", "S_5 (perpetual, scope n)", allPass(cells))
	}
	tab.Add("memory", "◇S_2 + ◇φ_1", "◇S_5 (eventual)", rEvt.OK())
	b.WriteString(tab.String())

	rPair := rs["F9-add-s-pairs"]
	tabP := &cliutil.Table{Markdown: true, Headers: []string{
		"oracle pair", "classes", "S-role verdict", "φ-role verdict", "runs", "◇S_5 check"}}
	for _, g := range oracleGroups(rPair) {
		tabP.Add(g.oracle, g.cells[0].OracleClass, roleOf(g.cells, sRole), roleOf(g.cells, phiRole),
			len(g.cells), allPass(g.cells))
	}
	b.WriteString("\n")
	b.WriteString(tabP.String())
	verdict(b, r.OK() && rEvt.OK() && rPair.OK(),
		"emulated SUSPECTED sets pass the class checker on every substrate, "+
			"including under generated hostile oracle pairs driving both roles")
}

// expT5: Theorem 5 boundary.
func expT5(b *strings.Builder, rs reportSet) {
	section(b, "EXP-T5 · Theorem 5 — t < n/2 and z ≤ k are tight",
		"k-set agreement is solvable in AS[n,t](Ω_z) iff t < n/2 and z ≤ k: with a legal Ω_{k+1} there are runs deciding k+1 values, and the construction refuses t ≥ n/2.")
	r := rs["T5-tightness"]
	z := r.Matrix.Combos[0].Z
	maxDistinct := sweep.MaxDistinct(r.Cells)
	refused := false
	func() {
		defer func() { refused = recover() != nil }()
		cfg := sim.Config{N: 4, T: 2, Seed: 1, MaxSteps: 1_000}
		sys := sim.MustNew(cfg)
		if _, err := core.SpawnKSetWith(sys, core.Class{Fam: core.FamOmega, Param: 1}, nil); err != nil {
			panic(err)
		}
		sys.Run(nil)
	}()
	tab := &cliutil.Table{Markdown: true, Headers: []string{"boundary", "observation"}}
	tab.Add("z ≤ k tight", fmt.Sprintf("Ω_2 runs decided up to %d distinct values (> k=1, never > z=2)", maxDistinct))
	tab.Add("t < n/2", fmt.Sprintf("construction with t ≥ n/2 rejected: %v", refused))
	b.WriteString(tab.String())
	verdict(b, r.OK() && maxDistinct == z && refused, "both sides of Theorem 5 observed")
}

// expT8: Theorem 8 boundary.
func expT8(b *strings.Builder, rs reportSet) {
	section(b, "EXP-T8 · Theorem 8 necessity + Observation O1",
		"x+y+z ≥ t+2 is necessary: the two-wheels output rests on a set of full size z = t+2−x−y, failing the Ω_{z−1} checker; and with f ≤ t−y crashes a φ_y answers by size only (O1).")
	r, rO1 := rs["T8-necessity"], rs["T8-O1"]
	failZminus1 := 0
	for _, c := range r.Cells {
		if c.Measures["z_minus_1_passes"] == 0 {
			failZminus1++
		}
	}
	tab := &cliutil.Table{Markdown: true, Headers: []string{"check", "result"}}
	tab.Add("two-wheels output fails Ω_{z−1}", fmt.Sprintf("%d/%d runs", failZminus1, len(r.Cells)))
	tab.Add("O1: f ≤ t−y ⇒ informative queries all false", rO1.OK())
	b.WriteString(tab.String())
	verdict(b, r.OK() && failZminus1 == len(r.Cells) && rO1.OK(), "the construction is exactly optimal (Corollary 4)")
}

// expT9: irreducibility.
func expT9(b *strings.Builder, rs reportSet) {
	section(b, "EXP-T9 · Theorems 9–12 — irreducibility by crash-vs-delay",
		"No algorithm builds ◇φ_y from S_x: for any claimed stabilization time τ, a run R′ (region E alive but delayed past τ, oracle outputs identical to run R where E crashed) makes the reducer answer true about live processes after τ.")
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"claimed stabilization τ", "run R: query(E) true at", "run R′ (E correct): safety violated at"}}
	ok := true
	for _, tau := range t9Taus {
		r := rs[fmt.Sprintf("T9-tau%d", tau)]
		ok = ok && r.OK()
		c := r.Cells[0]
		tab.Add(tau, c.Measures["query_true_in_r"], c.Measures["violation_in_r_prime"])
	}
	b.WriteString(tab.String())
	verdict(b, ok, "every candidate stabilization time is defeated; Theorems 10–12 follow the same indistinguishability pattern (see internal/adversary tests)")
}

// expBaselines: consensus ancestors.
func expBaselines(b *strings.Builder, rs reportSet) {
	section(b, "Baselines — the Fig. 3 algorithm vs its ancestors",
		"Fig. 3 at z = k = 1 is the Ω-based consensus of [20]; the rotating-coordinator ◇S consensus of [18] is the earlier ancestor. Same quorum pattern, different oracle usage.")
	rOmega, rDS := rs["baseline-fig3"], rs["baseline-rotating-coordinator"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"protocol", "oracle", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, row := range []struct {
		name, oracle string
		r            *sweep.Report
	}{
		{"Fig. 3, z=k=1", "Ω_1", rOmega},
		{"rotating coordinator [18]", "◇S", rDS},
	} {
		tab.Add(row.name, row.oracle, avgRounds(row.r.Cells),
			avgSteps(row.r.Cells), avgMsgs(row.r.Cells), row.r.OK())
	}
	b.WriteString(tab.String())
	verdict(b, rOmega.OK() && rDS.OK(), "both ancestors solve consensus; the leader-based variant needs no coordinator rotation after stabilization")
}

// expRepeated: repeated instances (zero-degradation in use).
func expRepeated(b *strings.Builder, rs reportSet) {
	section(b, "EXP-ZD · §3.2 — repeated instances under zero-degradation",
		"Zero-degradation matters when a set agreement algorithm is used repeatedly: with a perfect detector and initial crashes, future executions do not suffer from past failures — every instance stays single-round.")
	r := rs["ZD-repeated"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"instances", "initial crashes", "all instances round 1", "avg vticks/instance"}}
	tab.Add(r.Matrix.Params["instances"], "{2, 6}", r.OK(), avgMeasure(r.Cells, "vticks_per_instance"))
	b.WriteString(tab.String())
	verdict(b, r.OK(), "no degradation across consecutive instances")
}

// expAblation: the two routes to Ω.
func expAblation(b *strings.Builder, rs reportSet) {
	section(b, "EXP-ABL · ablation — two routes from ◇S to Ω",
		"The companion transformation [17] (quiescent single wheel, needs full-scope ◇S) versus the two-wheels addition with y=0 (works from ◇S_{t+1}, keeps inquiring forever): same Ω output, opposite traffic profiles.")
	rSW, rTW := rs["ABL-single-wheel"], rs["ABL-two-wheels-y0"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"route", "source class", "Ω check", "avg msgs/run", "quiescent"}}
	tab.Add("single wheel [17]", "◇S (= ◇S_n)", rSW.OK(), avgMsgs(rSW.Cells), true)
	tab.Add("two wheels, y=0", fmt.Sprintf("◇S_%d", rTW.Matrix.Combos[0].X), rTW.OK(), avgMsgs(rTW.Cells), false)
	b.WriteString(tab.String())
	verdict(b, rSW.OK() && rTW.OK(), "the weaker-source route pays a permanent inquiry stream; the full-scope route goes quiet")
}

// expScale: large-n sweeps under generated adversary schedules.
func expScale(b *strings.Builder, rs reportSet) {
	section(b, "EXP-SCALE · scaling — generated adversaries, n up to 256",
		"(not a paper claim) The paper's algorithms are size-generic; the constructions must keep "+
			"their guarantees at n ≫ the paper's examples and under machine-generated adversary "+
			"schedules (staggered / clustered / cascade crashes, partition- and silence-style hold scripts) "+
			"rather than hand-picked ones.")
	rKSet := rs["SCALE-kset"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"n", "t", "schedule", "runs", "max distinct", "avg rounds", "avg vticks", "avg msgs", "ok"}}
	for _, size := range rKSet.Matrix.Sizes {
		byPattern := map[string][]sweep.CellResult{}
		var order []string
		for _, c := range bySize(rKSet, size) {
			if _, seen := byPattern[c.Pattern]; !seen {
				order = append(order, c.Pattern)
			}
			byPattern[c.Pattern] = append(byPattern[c.Pattern], c)
		}
		for _, name := range order {
			cells := byPattern[name]
			tab.Add(size.N, size.T, name, len(cells), sweep.MaxDistinct(cells),
				avgRounds(cells), avgSteps(cells), avgMsgs(cells), allPass(cells))
		}
	}
	b.WriteString(tab.String())

	rPsi := rs["SCALE-psi"]
	combo := rPsi.Matrix.Combos[0]
	tab2 := &cliutil.Table{Markdown: true, Headers: []string{"n", "t", "y", "z", "runs", "Ω_z check", "msgs"}}
	for _, size := range rPsi.Matrix.Sizes {
		cells := bySize(rPsi, size)
		tab2.Add(size.N, size.T, combo.Y, combo.Z, len(cells), allPass(cells), avgMsgs(cells))
	}
	b.WriteString("\n")
	b.WriteString(tab2.String())
	verdict(b, rKSet.OK() && rPsi.OK(),
		"2-set agreement and the message-free Ψ→Ω chain keep their guarantees at n ∈ {64, 96, 128, 192, 256} across every generated schedule")
}

// oracleGroups collects a report's cells grouped by (size, oracle
// script), in first-appearance order — the EXP-ORACLE table axis.
type oracleGroup struct {
	size   sweep.Size
	oracle string
	cells  []sweep.CellResult
}

func oracleGroups(r *sweep.Report) []*oracleGroup {
	var order []*oracleGroup
	index := map[string]*oracleGroup{}
	for _, c := range r.Cells {
		key := fmt.Sprintf("%d/%s", c.Size.N, c.Oracle)
		g, ok := index[key]
		if !ok {
			g = &oracleGroup{size: c.Size, oracle: c.Oracle}
			index[key] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, c)
	}
	return order
}

// roleOf summarizes one verdict column across a group's cells
// (identical across seeds of one script×pattern by construction).
func roleOf(cells []sweep.CellResult, pick func(sweep.CellResult) string) string {
	v := pick(cells[0])
	for _, c := range cells {
		if pick(c) != v {
			return "mixed"
		}
	}
	if v == "" {
		return "n/a"
	}
	return v
}

// conformanceOf summarizes a group's joint conformance verdicts.
func conformanceOf(cells []sweep.CellResult) string {
	return roleOf(cells, func(c sweep.CellResult) string { return c.OracleConformance })
}

// sRole and phiRole pick the per-role verdicts of paired-oracle cells.
func sRole(c sweep.CellResult) string   { return c.OracleS }
func phiRole(c sweep.CellResult) string { return c.OraclePhi }

// expCounterfactual: counterfactual replay of one ORACLE-kset-flap
// cell (EXP-CF). Its two traced runs go through sweep.Replay and never
// enter the suite JSON — the committed suite golden is untouched by
// this section.
func expCounterfactual(b *strings.Builder, m sweep.Matrix) error {
	section(b, "EXP-CF · counterfactual replay — attributing a divergence to its cause",
		"(not a paper claim) Every cell is deterministic, so re-running it under one declarative "+
			"perturbation and diffing the two decision traces pins the *first* observable consequence "+
			"of that change — a mechanized version of the paper's run-modification arguments "+
			"(crash-vs-delay indistinguishability, Theorems 9–12). Here: the first late-stabilization "+
			"parameter-script cell of ORACLE-kset-flap, replayed with the oracle's scripted "+
			"stabilization pushed 2000 ticks later.")
	cells, err := m.Cells()
	if err != nil {
		return err
	}
	index := -1
	for i, c := range cells {
		if !c.Oracle.None() && !c.Oracle.IsTimeline() && c.Seed == 0 {
			index = i
			break
		}
	}
	if index < 0 {
		return fmt.Errorf("experiments: EXP-CF found no parameter-script cell in %s", m.Name)
	}
	pert, err := sweep.ParsePerturbation("stab+2000")
	if err != nil {
		return err
	}
	rr, err := sweep.Replay(m, index, pert, trace.Decisions)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Replayed: `go run ./cmd/experiments -replay %s:%d -perturb %s` "+
		"(n=%d, t=%d, seed %d, oracle `%s`, trace level `decisions`).\n\n",
		m.Name, index, pert, rr.Base.Size.N, rr.Base.Size.T, rr.Base.Seed, rr.Base.Oracle)
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"run", "verdict", "rounds", "vticks", "trace events", "trace digest"}}
	tab.Add("base", rr.Base.Verdict, rr.Base.MaxRound, rr.Base.Steps, rr.Base.TraceEvents, rr.Base.TraceDigest)
	tab.Add(pert.String(), rr.Perturbed.Verdict, rr.Perturbed.MaxRound, rr.Perturbed.Steps, rr.Perturbed.TraceEvents, rr.Perturbed.TraceDigest)
	b.WriteString(tab.String())
	if rr.Div == nil {
		b.WriteString("\nDivergence: none — the perturbation changed nothing the trace observes.\n")
	} else {
		fmt.Fprintf(b, "\nDivergence: %s\n", rr.Div.Summary)
	}
	verdict(b, rr.Base.Verdict == sweep.Pass && rr.Perturbed.Verdict == sweep.Pass && rr.Div != nil,
		"both runs still decide (the algorithm tolerates the later stabilization); the trace diff "+
			"pins the first decision the 2000-tick shift actually moved, and the divergence point is "+
			"byte-reproducible run to run")
	return nil
}

// expOracle: generated hostile-oracle families as a sweep dimension —
// the classes are defined by what their oracles may do, so the oracle
// is swept the way crash schedules are (EXP-ORACLE).
func expOracle(b *strings.Builder, rs reportSet) {
	section(b, "EXP-ORACLE · generated hostile-oracle families",
		"(not a paper claim) The classes S_x, ◇S_x, Ω_z and the φ/Ψ families are defined by which "+
			"oracle histories they admit; the algorithms must keep their guarantees under *any* of them. "+
			"adversary.OracleGen makes that dimension sweepable: leader-flapping timelines, scope-churn "+
			"scripts, anarchy bursts with seeded intensity ramps and late-stabilization sweeps expand "+
			"deterministically into scripted or parameterized oracles, and fd/check.go tags every "+
			"generated script with a conformance verdict against its declared class.")
	rFlap := rs["ORACLE-kset-flap"]
	tab := &cliutil.Table{Markdown: true, Headers: []string{
		"n", "oracle", "class", "conformance", "runs", "max distinct", "avg rounds", "avg vticks", "ok"}}
	for _, g := range oracleGroups(rFlap) {
		class := g.cells[0].OracleClass
		tab.Add(g.size.N, g.oracle, class, conformanceOf(g.cells), len(g.cells),
			sweep.MaxDistinct(g.cells), avgRounds(g.cells), avgSteps(g.cells), allPass(g.cells))
	}
	b.WriteString(tab.String())

	rBurst := rs["ORACLE-psi-burst"]
	tab2 := &cliutil.Table{Markdown: true, Headers: []string{
		"n", "oracle", "conformance", "runs", "Ω_3 check", "msgs"}}
	for _, g := range oracleGroups(rBurst) {
		tab2.Add(g.size.N, g.oracle, conformanceOf(g.cells), len(g.cells),
			allPass(g.cells), avgMsgs(g.cells))
	}
	b.WriteString("\n")
	b.WriteString(tab2.String())

	rChurn := rs["ORACLE-wheels-churn"]
	tab3 := &cliutil.Table{Markdown: true, Headers: []string{
		"oracle", "class", "conformance", "runs", "Ω_1 check", "avg stabilization vtick"}}
	for _, g := range oracleGroups(rChurn) {
		tab3.Add(g.oracle, g.cells[0].OracleClass, conformanceOf(g.cells), len(g.cells),
			allPass(g.cells), avgMeasure(g.cells, "stabilization"))
	}
	b.WriteString("\n")
	b.WriteString(tab3.String())
	verdict(b, rFlap.OK() && rBurst.OK() && rChurn.OK(),
		"every generated oracle script conforms to its declared class under the swept patterns, and "+
			"k-set agreement, the Ψ→Ω chain and the two-wheels addition all keep their guarantees under "+
			"flapping, bursty and scope-churning oracles up to n = 128")
}
