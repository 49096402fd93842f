package analyze

// Static worst-case energy consumption (WCEC) verifier: a
// path-sensitive worst/best-case cycle and energy bound per atomic
// region, where a region is the code between two commit points —
// checkpoint-to-checkpoint intervals for the checkpointing runtimes
// (boundary SYS sites), or the static task boundaries of analyze.Tasks
// for the checkpoint-free family. The bounds are computed over the
// instruction-level control-flow graph with loop-trip inference from
// the interval dataflow, priced in cycles via cpu.CyclesFor and in
// joules via the device power model, then compared against the
// device's maximum stored energy E_max = ½·C·(V_on² − V_off²):
//
//   - WCEC ≤ E_max   ⇒ a *certificate*: every traversal of the region
//     fits inside one full capacitor charge, so forward progress is
//     statically guaranteed under any supply (the dynamic engine can
//     always complete the region from a fresh V_on boot).
//   - BCEC > E_max   ⇒ a *livelock verdict*: even the cheapest path to
//     a commit exceeds what a full charge can deliver, so no capacitor
//     charge ever completes the region — the static twin of
//     device.ErrNoProgress. A region from which no commit is reachable
//     at all (an unbounded boundary-free loop with no exit) is reported
//     the same way: BCEC = ∞.
//   - otherwise      ⇒ *unknown*: the worst path overruns the budget
//     but some path fits; whether the device progresses depends on the
//     branches taken.
//
// The bounds price compute energy only. The commit transfer itself is
// strategy-dependent (payload size × σ_B), so certificates are exact
// for the instruction stream and optimistic by the backup cost, while
// livelock verdicts remain sound (the true cost only grows).
//
// Loop bounds come from the PR-3 interval dataflow: a counted loop with
// a single ADDI induction update that executes on every cycle of the
// loop and whose pre-update interval [lo,hi] is finite admits at most
// (hi−lo)/|step| + 1 update executions, bounding the completed
// iterations. Anything else — irreducible loops, data-dependent trip
// counts the intervals cannot close — is reported as unbounded (∞),
// never as a wrapped/overflowed figure: cycle arithmetic saturates into
// an explicit infinity flag.
//
// Per-iteration pricing follows the single convention documented at
// simpleCycleCost in lints.go: every completed iteration is charged
// along the loop-continuing path (back edge taken as executed), and the
// final, exiting iteration is charged separately as the worst path from
// the header to the exit edge at that edge's own cost — so the
// not-taken exit branch is never smeared into the steady-state figure.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
)

// WCECMode selects how atomic regions are delimited.
type WCECMode string

const (
	// WCECCheckpoint delimits regions at the checkpoint boundary SYS
	// sites (DefaultBoundaries: SysChkpt and SysTaskEnd) — the commit
	// opportunities of the checkpointing runtimes.
	WCECCheckpoint WCECMode = "checkpoint"
	// WCECTask delimits regions at the static task boundaries of
	// analyze.Tasks: SysTaskEnd markers plus the WAR-cut boundaries,
	// which commit *before* the cut instruction executes.
	WCECTask WCECMode = "task"
)

// WCECVerdict is the per-region outcome.
type WCECVerdict string

const (
	// WCECCertified: WCEC ≤ E_max — statically guaranteed progress.
	WCECCertified WCECVerdict = "certified"
	// WCECLivelock: BCEC > E_max — no full charge completes the region.
	WCECLivelock WCECVerdict = "livelock"
	// WCECUnknown: some paths fit the budget, the worst does not.
	WCECUnknown WCECVerdict = "unknown"
)

// WCECChkpt is the region kind for entries that follow a checkpoint
// boundary SYS (checkpoint mode); task-mode regions reuse the task
// kinds (TaskEntry, TaskSysEnd, TaskWARCut).
const WCECChkpt = "chkpt"

// wcecRepairKind marks synthetic regions opened by a repair cut while
// the repair search re-runs the analysis; it never appears in the
// emitted table.
const wcecRepairKind = "repair"

// WCECRegion is one atomic region's bounds and verdict.
type WCECRegion struct {
	ID    int
	Entry int    // entry PC
	Kind  string // TaskEntry | WCECChkpt | TaskSysEnd | TaskWARCut

	WCCycles    uint64 // worst-case cycles to a commit (valid when !WCUnbounded)
	WCUnbounded bool
	WCEnergy    float64 // worst-case joules (+Inf when WCUnbounded)

	BCCycles    uint64  // best-case cycles to a commit (valid when !BCUnbounded)
	BCUnbounded bool    // no commit reachable at all
	BCEnergy    float64 // best-case joules (+Inf when BCUnbounded)

	Verdict WCECVerdict
}

// WCECTable is the per-program certificate table.
type WCECTable struct {
	Prog    string
	Mode    WCECMode
	BudgetJ float64 // E_max the verdicts were judged against
	Regions []WCECRegion

	// Repair is the suggested set of additional boundary insertion
	// points (commit *before* these PCs) the greedy repair search found;
	// RepairComplete reports whether applying them makes every region
	// certified. Repair is empty when the program is already feasible.
	Repair         []int
	RepairComplete bool
}

// VerdictCounts tallies the regions per verdict.
func (t *WCECTable) VerdictCounts() (certified, livelock, unknown int) {
	for i := range t.Regions {
		switch t.Regions[i].Verdict {
		case WCECCertified:
			certified++
		case WCECLivelock:
			livelock++
		default:
			unknown++
		}
	}
	return
}

// FirstLivelock returns the first livelock region, or nil.
func (t *WCECTable) FirstLivelock() *WCECRegion {
	for i := range t.Regions {
		if t.Regions[i].Verdict == WCECLivelock {
			return &t.Regions[i]
		}
	}
	return nil
}

// RegionAt returns the region entered at the given PC, or nil.
func (t *WCECTable) RegionAt(entry int) *WCECRegion {
	for i := range t.Regions {
		if t.Regions[i].Entry == entry {
			return &t.Regions[i]
		}
	}
	return nil
}

// WCECOptions parameterizes the verifier.
type WCECOptions struct {
	// Mode selects the region delimitation; empty = WCECCheckpoint.
	Mode WCECMode
	// Power prices cycles into joules; zero value = energy.MSP430Power().
	Power energy.PowerModel
	// BudgetJ is E_max, the usable energy of a full capacitor charge
	// (½·C·(V_on²−V_off²)). Must be > 0.
	BudgetJ float64
}

// WCEC runs the static forward-progress verifier over prog.
func WCEC(prog *asm.Program, o WCECOptions) (*WCECTable, error) {
	p, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	if !(o.BudgetJ > 0) {
		return nil, fmt.Errorf("analyze: wcec: energy budget must be > 0, got %g", o.BudgetJ)
	}
	if o.Mode == "" {
		o.Mode = WCECCheckpoint
	}
	pm := o.Power
	if pm.FreqHz == 0 {
		pm = energy.MSP430Power()
	}
	if err := pm.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: wcec: %w", err)
	}

	w := &wcecCalc{
		program: p,
		code:    prog.Code,
		mode:    o.Mode,
		budget:  o.BudgetJ,
	}
	for c := 0; c < int(energy.NumClasses); c++ {
		w.epc[c] = pm.EnergyPerCycle(energy.InstrClass(c))
	}

	switch o.Mode {
	case WCECCheckpoint:
		w.sysBounds = map[isa.Sys]bool{}
		for _, s := range DefaultBoundaries() {
			w.sysBounds[s] = true
		}
		w.baseCuts = map[int]bool{}
		w.entries = append(w.entries, wcecEntry{0, TaskEntry})
		for pc, in := range w.code {
			if in.Op == isa.SYS && w.sysBounds[isa.Sys(in.Imm)] && pc+1 < len(w.code) {
				w.entries = append(w.entries, wcecEntry{pc + 1, WCECChkpt})
			}
		}
	case WCECTask:
		tt := p.tasks()
		w.sysBounds = map[isa.Sys]bool{isa.SysTaskEnd: true}
		w.baseCuts = map[int]bool{}
		for _, pc := range tt.Boundaries {
			w.baseCuts[pc] = true
		}
		for _, tk := range tt.Tasks {
			w.entries = append(w.entries, wcecEntry{tk.Entry, tk.Kind})
		}
	default:
		return nil, fmt.Errorf("analyze: wcec: unknown mode %q", o.Mode)
	}

	tbl := w.compute(nil)
	tbl.Repair, tbl.RepairComplete = w.repair(tbl)
	return tbl, nil
}

// wcecEntry is one region entry candidate.
type wcecEntry struct {
	pc   int
	kind string
}

type wcecCalc struct {
	program
	code      []isa.Instr
	mode      WCECMode
	budget    float64
	sysBounds map[isa.Sys]bool
	baseCuts  map[int]bool // commit-before-PC boundaries (task WAR cuts)
	entries   []wcecEntry
	epc       [energy.NumClasses]float64
}

// pcReachable reports whether the flow fixpoint reached pc's block.
func (w *wcecCalc) pcReachable(pc int) bool {
	return pc >= 0 && pc < len(w.code) && w.fr.reach[w.g.blockOf[pc]]
}

// compute runs the per-region analysis with the base boundaries plus
// the extra commit-before cuts (the repair search's candidate set).
func (w *wcecCalc) compute(extraCuts []int) *WCECTable {
	cuts := make(map[int]bool, len(w.baseCuts)+len(extraCuts))
	for pc := range w.baseCuts {
		cuts[pc] = true
	}
	entries := append([]wcecEntry(nil), w.entries...)
	for _, pc := range extraCuts {
		cuts[pc] = true
		entries = append(entries, wcecEntry{pc, wcecRepairKind})
	}

	seen := map[int]bool{}
	var regs []WCECRegion
	sort.Slice(entries, func(i, j int) bool { return entries[i].pc < entries[j].pc })
	for _, e := range entries {
		if seen[e.pc] || !w.pcReachable(e.pc) {
			continue
		}
		seen[e.pc] = true
		rg := w.buildRegion(e.pc, cuts)
		r := WCECRegion{ID: len(regs), Entry: e.pc, Kind: e.kind}

		bcCyc, okC := rg.shortest(func(cyc uint64, _ float64) float64 { return float64(cyc) })
		bcE, okE := rg.shortest(func(_ uint64, en float64) float64 { return en })
		if !okC || !okE {
			r.BCUnbounded = true
			r.BCEnergy = math.Inf(1)
		} else {
			r.BCCycles = uint64(bcCyc)
			r.BCEnergy = bcE
		}

		wc := w.worst(rg)
		if wc.inf {
			r.WCUnbounded = true
			r.WCEnergy = math.Inf(1)
		} else {
			r.WCCycles = wc.cyc
			r.WCEnergy = wc.e
		}

		switch {
		case !r.WCUnbounded && r.WCEnergy <= w.budget:
			r.Verdict = WCECCertified
		case r.BCEnergy > w.budget:
			r.Verdict = WCECLivelock
		default:
			r.Verdict = WCECUnknown
		}
		regs = append(regs, r)
	}
	return &WCECTable{Prog: w.prog.Name, Mode: w.mode, BudgetJ: w.budget, Regions: regs}
}

// ---------------------------------------------------------------------
// Region graph: instruction-level, with edge costs.

// rgEdge is an in-region control transfer: executing the source costs
// cyc cycles / e joules and control arrives at to.
type rgEdge struct {
	to  int
	cyc uint64
	e   float64
}

// rgTerm prices a region-ending step from a node: executing a boundary
// SYS / SysHalt (its own cost), or an edge into a commit-before cut
// (the edge's cost; the cut target is not executed).
type rgTerm struct {
	cyc uint64
	e   float64
}

type rgNode struct {
	succ []rgEdge
	term []rgTerm
}

type regionGraph struct {
	entry int
	nodes map[int]*rgNode
}

// buildRegion explores the instructions reachable from entry without
// crossing a commit. Edges whose target lies outside the program are
// dropped: running off the code is a fault, not a commit, so such paths
// neither certify nor count as a best case.
func (w *wcecCalc) buildRegion(entry int, cuts map[int]bool) *regionGraph {
	n := len(w.code)
	rg := &regionGraph{entry: entry, nodes: map[int]*rgNode{}}
	stack := []int{entry}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if rg.nodes[pc] != nil {
			continue
		}
		node := &rgNode{}
		rg.nodes[pc] = node
		in := w.code[pc]
		cost := func(taken bool) (uint64, float64) {
			cyc := cpu.CyclesFor(in, taken)
			return cyc, float64(cyc) * w.epc[cpu.ClassFor(in)]
		}
		if in.Op == isa.SYS {
			ss := isa.Sys(in.Imm)
			if ss == isa.SysHalt || w.sysBounds[ss] {
				cyc, e := cost(true)
				node.term = append(node.term, rgTerm{cyc, e})
				continue // commit after this instruction: the region ends here
			}
		}
		addSucc := func(t int, taken bool) {
			if t < 0 || t >= n {
				return
			}
			cyc, e := cost(taken)
			if cuts[t] {
				// Commit happens before t executes: region over.
				node.term = append(node.term, rgTerm{cyc, e})
				return
			}
			node.succ = append(node.succ, rgEdge{t, cyc, e})
			stack = append(stack, t)
		}
		switch {
		case in.Op.IsBranch():
			addSucc(pc+1, false)
			addSucc(pc+int(in.Imm), true)
		case in.Op == isa.JAL:
			addSucc(int(in.Imm), true)
		case in.Op == isa.JALR:
			for _, rs := range w.g.returnSites {
				addSucc(rs, true)
			}
		default:
			addSucc(pc+1, true)
		}
	}
	return rg
}

// shortest computes the minimum sel-weight from the entry to any commit
// by fixpoint relaxation (weights are non-negative, so the minimum over
// walks equals the shortest path and loop bounds are irrelevant).
// ok=false means no commit is reachable.
func (rg *regionGraph) shortest(sel func(cyc uint64, e float64) float64) (float64, bool) {
	dist := map[int]float64{rg.entry: 0}
	for range rg.nodes {
		changed := false
		for pc, n := range rg.nodes {
			d, ok := dist[pc]
			if !ok {
				continue
			}
			for _, e := range n.succ {
				nd := d + sel(e.cyc, e.e)
				if cur, ok := dist[e.to]; !ok || nd < cur {
					dist[e.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	best, ok := 0.0, false
	for pc, n := range rg.nodes {
		d, reached := dist[pc]
		if !reached {
			continue
		}
		for _, t := range n.term {
			v := d + sel(t.cyc, t.e)
			if !ok || v < best {
				best, ok = v, true
			}
		}
	}
	return best, ok
}

// ---------------------------------------------------------------------
// Worst case: saturating cost arithmetic and loop collapse.

// wcost is a (cycles, joules) pair with an explicit infinity: cycle
// arithmetic saturates into inf instead of wrapping, so unbounded loops
// report ∞, never an overflowed figure.
type wcost struct {
	cyc uint64
	e   float64
	inf bool
}

const maxWCycles = uint64(1) << 62

var infW = wcost{inf: true}

func addW(a, b wcost) wcost {
	if a.inf || b.inf {
		return infW
	}
	c := a.cyc + b.cyc
	if c < a.cyc || c > maxWCycles {
		return infW
	}
	return wcost{cyc: c, e: a.e + b.e}
}

func mulW(a wcost, k uint64) wcost {
	if a.inf {
		return infW
	}
	if k == 0 || a.cyc == 0 && a.e == 0 {
		return wcost{cyc: 0, e: a.e * float64(k)}
	}
	if a.cyc > 0 && k > maxWCycles/a.cyc {
		return infW
	}
	return wcost{cyc: a.cyc * k, e: a.e * float64(k)}
}

// maxW takes the component-wise maximum: the result bounds every
// candidate path in both components (possibly achieved by different
// paths, which only loosens the bound soundly).
func maxW(a, b wcost) wcost {
	if a.inf || b.inf {
		return infW
	}
	return wcost{cyc: maxU64(a.cyc, b.cyc), e: math.Max(a.e, b.e)}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// cNode is a node of the mutable collapse graph: a single instruction,
// or (after reduce) a summarized loop standing at its header PC.
type cNode struct {
	succ      []cEdge
	term      *wcost // merged worst region-ending cost, nil if none
	members   []int  // original PCs (nil = the single instruction at the key)
	collapsed bool
}

type cEdge struct {
	to int
	c  wcost
}

// cGraph is the collapse graph (map[int]*cNode, keyed by the PC each
// node stands at) seen by the SCC routine: succ is its successor
// function for sccs and cyclic.
type cGraph map[int]*cNode

func (g cGraph) succ(v, i int) (int, bool) {
	if s := g[v].succ; i < len(s) {
		return s[i].to, true
	}
	return 0, false
}

// worst computes the worst-case cost from the region entry to a commit:
// collapse every loop into a bounded (or ∞) summary node, then take the
// longest path over the resulting DAG. A node from which no commit is
// reachable contributes ∞ — a traversal reaching it never commits.
func (w *wcecCalc) worst(rg *regionGraph) wcost {
	g := map[int]*cNode{}
	for pc, n := range rg.nodes {
		cn := &cNode{}
		for _, e := range n.succ {
			cn.succ = append(cn.succ, cEdge{e.to, wcost{cyc: e.cyc, e: e.e}})
		}
		for _, t := range n.term {
			tc := wcost{cyc: t.cyc, e: t.e}
			if cn.term == nil {
				cn.term = &tc
			} else {
				m := maxW(*cn.term, tc)
				cn.term = &m
			}
		}
		g[pc] = cn
	}
	allowed := map[int]bool{}
	for pc := range g {
		allowed[pc] = true
	}
	w.reduce(g, allowed, rg.entry)
	return w.dagWorst(g, rg.entry)
}

// reduce collapses every cycle inside the allowed set, innermost first.
func (w *wcecCalc) reduce(g map[int]*cNode, allowed map[int]bool, entry int) {
	for _, comp := range w.loopsIn(g, allowed) {
		compSet := map[int]bool{}
		for _, id := range comp {
			compSet[id] = true
		}
		h, ok := header(g, compSet, entry)
		if !ok {
			w.collapseIrreducible(g, compSet, entry)
			continue
		}
		inner := map[int]bool{}
		for id := range compSet {
			if id != h {
				inner[id] = true
			}
		}
		w.reduce(g, inner, entry)
		// Inner collapse may have deleted nodes; refresh membership.
		live := map[int]bool{}
		for id := range compSet {
			if g[id] != nil {
				live[id] = true
			}
		}
		w.summarizeLoop(g, live, h)
	}
}

// loopsIn returns the cyclic SCCs of the collapse graph restricted to
// allowed, in sccs order. Node ids are PCs: the graph lives in
// [0, len(code)), minus the members earlier collapses deleted.
func (w *wcecCalc) loopsIn(g cGraph, allowed map[int]bool) [][]int {
	var loops [][]int
	for _, comp := range sccs(len(w.code), func(v int) bool { return allowed[v] && g[v] != nil }, g.succ) {
		if cyclic(comp, g.succ) {
			loops = append(loops, comp)
		}
	}
	return loops
}

// header finds the unique loop entry: the one node of the component
// receiving edges from outside it (the region entry counts as an
// outside edge). Multiple entries mean an irreducible loop.
func header(g map[int]*cNode, compSet map[int]bool, entry int) (int, bool) {
	heads := map[int]bool{}
	if compSet[entry] {
		heads[entry] = true
	}
	for id, n := range g {
		if compSet[id] {
			continue
		}
		for _, e := range n.succ {
			if compSet[e.to] {
				heads[e.to] = true
			}
		}
	}
	if len(heads) != 1 {
		return 0, false
	}
	for h := range heads {
		return h, true
	}
	return 0, false
}

// collapseIrreducible folds a multiple-entry component into one node
// whose every continuation is ∞ — sound, never precise.
func (w *wcecCalc) collapseIrreducible(g map[int]*cNode, compSet map[int]bool, entry int) {
	rep := -1
	if compSet[entry] {
		rep = entry
	} else {
		for id := range compSet {
			if rep < 0 || id < rep {
				rep = id
			}
		}
	}
	node := &cNode{collapsed: true}
	exits := map[int]bool{}
	hasTerm := false
	for id := range compSet {
		n := g[id]
		node.members = append(node.members, nodeMembers(id, n)...)
		for _, e := range n.succ {
			if !compSet[e.to] {
				exits[e.to] = true
			}
		}
		if n.term != nil {
			hasTerm = true
		}
	}
	sort.Ints(node.members)
	for t := range exits {
		node.succ = append(node.succ, cEdge{t, infW})
	}
	sort.Slice(node.succ, func(i, j int) bool { return node.succ[i].to < node.succ[j].to })
	if hasTerm {
		t := infW
		node.term = &t
	}
	for id := range compSet {
		if id != rep {
			delete(g, id)
		}
	}
	g[rep] = node
	retargetEdges(g, compSet, rep)
}

// retargetEdges rewires every edge pointing into the (now deleted)
// component to its representative.
func retargetEdges(g map[int]*cNode, compSet map[int]bool, rep int) {
	for _, n := range g {
		for i := range n.succ {
			if compSet[n.succ[i].to] {
				n.succ[i].to = rep
			}
		}
	}
}

func nodeMembers(id int, n *cNode) []int {
	if n.members != nil {
		return n.members
	}
	return []int{id}
}

// summarizeLoop replaces a single-header loop (inner loops already
// collapsed) by one node at the header: exit edges and terminals are
// re-priced as trips·(worst cycle) + the worst header→exit suffix.
func (w *wcecCalc) summarizeLoop(g map[int]*cNode, compSet map[int]bool, h int) {
	trips, known := w.tripBound(g, compSet, h)

	// Longest paths from the header through the loop body: the component
	// minus the back edges (edges into h) is a DAG after inner collapse.
	order, acyclic := topoOrder(g, compSet, h)
	if !acyclic {
		w.collapseIrreducible(g, compSet, h)
		return
	}
	dag := map[int]wcost{h: {}}
	for _, id := range order {
		d, ok := dag[id]
		if !ok {
			continue
		}
		for _, e := range g[id].succ {
			if e.to == h || !compSet[e.to] {
				continue
			}
			cand := addW(d, e.c)
			if cur, ok := dag[e.to]; !ok {
				dag[e.to] = cand
			} else {
				dag[e.to] = maxW(cur, cand)
			}
		}
	}

	var cycleW wcost
	for id := range compSet {
		d, ok := dag[id]
		if !ok {
			continue
		}
		for _, e := range g[id].succ {
			if e.to == h {
				cycleW = maxW(cycleW, addW(d, e.c))
			}
		}
	}
	base := infW
	if known {
		base = mulW(cycleW, trips)
	}

	node := &cNode{collapsed: true}
	exits := map[int]wcost{}
	var term *wcost
	for id := range compSet {
		n := g[id]
		node.members = append(node.members, nodeMembers(id, n)...)
		d, reached := dag[id]
		if !reached {
			continue
		}
		for _, e := range n.succ {
			if compSet[e.to] {
				continue
			}
			c := addW(base, addW(d, e.c))
			if cur, ok := exits[e.to]; ok {
				c = maxW(cur, c)
			}
			exits[e.to] = c
		}
		if n.term != nil {
			c := addW(base, addW(d, *n.term))
			if term == nil {
				term = &c
			} else {
				m := maxW(*term, c)
				term = &m
			}
		}
	}
	sort.Ints(node.members)
	tos := make([]int, 0, len(exits))
	for t := range exits {
		tos = append(tos, t)
	}
	sort.Ints(tos)
	for _, t := range tos {
		node.succ = append(node.succ, cEdge{t, exits[t]})
	}
	node.term = term
	for id := range compSet {
		if id != h {
			delete(g, id)
		}
	}
	g[h] = node
	retargetEdges(g, compSet, h)
}

// topoOrder orders the component with the header's in-edges removed;
// acyclic=false reports a leftover cycle (an irreducible remnant).
func topoOrder(g map[int]*cNode, compSet map[int]bool, h int) ([]int, bool) {
	indeg := map[int]int{}
	for id := range compSet {
		indeg[id] = 0
	}
	for id := range compSet {
		for _, e := range g[id].succ {
			if e.to != h && compSet[e.to] {
				indeg[e.to]++
			}
		}
	}
	var queue, order []int
	for id := range compSet {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, e := range g[id].succ {
			if e.to == h || !compSet[e.to] {
				continue
			}
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	return order, len(order) == len(compSet)
}

// tripBound bounds the completed cycles through the loop header per
// entry: a counted-loop induction update `ADDI r, r, k` that is the
// only writer of r in the loop and executes on every cycle admits at
// most (hi−lo)/|k| + 1 executions, with [lo, hi] the interval analysis'
// bound on r immediately before the update.
func (w *wcecCalc) tripBound(g map[int]*cNode, compSet map[int]bool, h int) (uint64, bool) {
	var backs []int
	for id := range compSet {
		for _, e := range g[id].succ {
			if e.to == h {
				backs = append(backs, id)
				break
			}
		}
	}
	var allPCs []int
	for id := range compSet {
		allPCs = append(allPCs, nodeMembers(id, g[id])...)
	}

	best, found := uint64(0), false
	for u := range compSet {
		if g[u].collapsed {
			continue // a collapsed inner loop is not a single update site
		}
		in := w.code[u]
		if in.Op != isa.ADDI || in.Rd != in.Rs1 || in.Rd == isa.R0 || in.Imm == 0 {
			continue
		}
		r := in.Rd
		unique := true
		for _, pc := range allPCs {
			if pc != u && writesReg(w.code[pc], r) {
				unique = false
				break
			}
		}
		if !unique {
			continue
		}
		if u != h && cycleAvoids(g, compSet, h, u, backs) {
			continue
		}
		if !w.pcReachable(u) {
			continue
		}
		iv := w.fr.stateAt[u].r[r]
		if iv.lo <= negInf/2 || iv.hi >= posInf/2 || iv.hi < iv.lo {
			continue
		}
		k := int64(in.Imm)
		if k < 0 {
			k = -k
		}
		steps := uint64((iv.hi-iv.lo)/k) + 1
		if !found || steps < best {
			best, found = steps, true
		}
	}
	return best, found
}

// cycleAvoids reports whether some cycle through h dodges node u: a
// back-edge source other than u reachable from h without touching u.
func cycleAvoids(g map[int]*cNode, compSet map[int]bool, h, u int, backs []int) bool {
	backSet := map[int]bool{}
	for _, b := range backs {
		if b != u {
			backSet[b] = true
		}
	}
	if len(backSet) == 0 {
		return false
	}
	seen := map[int]bool{u: true}
	stack := []int{h}
	if h == u {
		return false
	}
	seen[h] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if backSet[id] {
			return true
		}
		for _, e := range g[id].succ {
			if compSet[e.to] && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return false
}

// writesReg reports whether executing in writes register r, in lockstep
// with the interpreter's destinations (R0 is hardwired).
func writesReg(in isa.Instr, r isa.Reg) bool {
	if r == isa.R0 {
		return false
	}
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA,
		isa.SLT, isa.SLTU, isa.MUL, isa.DIV, isa.REM,
		isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI,
		isa.SLTI, isa.LUI, isa.LW, isa.LB, isa.LBU, isa.JAL, isa.JALR:
		return in.Rd == r
	case isa.SYS:
		return isa.Sys(in.Imm) == isa.SysSense && in.Rd == r
	}
	return false
}

// dagWorst takes the longest path over the reduced (acyclic) graph:
// W(n) = max(term(n), max over edges of cost + W(to)); a node with no
// continuation and no terminal never commits, which is ∞.
func (w *wcecCalc) dagWorst(g map[int]*cNode, entry int) wcost {
	memo := map[int]*wcost{}
	var visit func(id int) wcost
	var stack []int
	onPath := map[int]bool{}
	visit = func(id int) wcost {
		if v := memo[id]; v != nil {
			return *v
		}
		if onPath[id] {
			return infW // leftover cycle: unbounded
		}
		n := g[id]
		if n == nil {
			return infW
		}
		onPath[id] = true
		stack = append(stack, id)
		best := infW
		have := false
		if n.term != nil {
			best, have = *n.term, true
		}
		for _, e := range n.succ {
			c := addW(e.c, visit(e.to))
			if !have {
				best, have = c, true
			} else {
				best = maxW(best, c)
			}
		}
		onPath[id] = false
		stack = stack[:len(stack)-1]
		if !have {
			best = infW
		}
		memo[id] = &best
		return best
	}
	return visit(entry)
}

// ---------------------------------------------------------------------
// Repair: the greedy boundary-insertion search.

// maxRepairCuts caps the repair search.
const maxRepairCuts = 64

// repair searches for additional commit-before boundaries that make
// every region's WCEC fit the budget. The cut point for an over-budget
// region is the innermost loop header (committing per iteration), or —
// for loop-free overruns — the midpoint of the worst path by cost. The
// set is greedy-minimal: each cut is added only because some region
// still overruns without it.
func (w *wcecCalc) repair(base *WCECTable) ([]int, bool) {
	feasible := func(t *WCECTable) *WCECRegion {
		for i := range t.Regions {
			r := &t.Regions[i]
			if r.WCUnbounded || r.WCEnergy > w.budget {
				return r
			}
		}
		return nil
	}
	if feasible(base) == nil {
		return nil, true
	}
	var cuts []int
	cutSet := map[int]bool{}
	tbl := base
	for len(cuts) < maxRepairCuts {
		bad := feasible(tbl)
		if bad == nil {
			return cuts, true
		}
		pc, ok := w.repairPoint(bad.Entry, cuts)
		if !ok || cutSet[pc] {
			return cuts, false
		}
		cutSet[pc] = true
		cuts = append(cuts, pc)
		sort.Ints(cuts)
		tbl = w.compute(cuts)
	}
	return cuts, feasible(tbl) == nil
}

// repairPoint picks the boundary insertion PC for one offending region.
func (w *wcecCalc) repairPoint(entry int, extraCuts []int) (int, bool) {
	cuts := make(map[int]bool, len(w.baseCuts)+len(extraCuts))
	for pc := range w.baseCuts {
		cuts[pc] = true
	}
	for _, pc := range extraCuts {
		cuts[pc] = true
	}
	rg := w.buildRegion(entry, cuts)

	// Prefer the innermost loop header: a boundary there commits every
	// iteration, the classic fix for an unbounded or over-long loop.
	g := map[int]*cNode{}
	for pc, n := range rg.nodes {
		cn := &cNode{}
		for _, e := range n.succ {
			cn.succ = append(cn.succ, cEdge{e.to, wcost{cyc: e.cyc, e: e.e}})
		}
		g[pc] = cn
	}
	allowed := map[int]bool{}
	for pc := range g {
		allowed[pc] = true
	}
	if h, ok := w.innermostHeader(g, allowed, rg.entry); ok {
		return h, true
	}

	// Loop-free: cut before the PC where the worst path crosses half
	// its total cost.
	w.reduce(g, allowed, rg.entry)
	total := w.dagWorst(g, rg.entry)
	if total.inf || total.cyc == 0 {
		return 0, false
	}
	half := total.cyc / 2
	acc := uint64(0)
	id := rg.entry
	for acc < half {
		n := g[id]
		if n == nil || len(n.succ) == 0 {
			break
		}
		bestEdge, bestC := -1, infW
		for i, e := range n.succ {
			c := addW(e.c, w.dagWorst(g, e.to))
			if bestEdge < 0 || (!c.inf && (bestC.inf || c.cyc > bestC.cyc)) {
				bestEdge, bestC = i, c
			}
		}
		e := n.succ[bestEdge]
		acc += e.c.cyc
		id = e.to
	}
	if id == rg.entry {
		return 0, false
	}
	return id, true
}

// innermostHeader descends the loop nest of the region and returns the
// deepest single-header loop's header.
func (w *wcecCalc) innermostHeader(g map[int]*cNode, allowed map[int]bool, entry int) (int, bool) {
	for _, comp := range w.loopsIn(g, allowed) {
		compSet := map[int]bool{}
		for _, id := range comp {
			compSet[id] = true
		}
		h, ok := header(g, compSet, entry)
		if !ok {
			return comp[0], true // irreducible: any cut point helps
		}
		inner := map[int]bool{}
		for id := range compSet {
			if id != h {
				inner[id] = true
			}
		}
		if ih, ok := w.innermostHeader(g, inner, entry); ok {
			return ih, true
		}
		return h, true
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Output: one text line per region, and JSON for machine readers.

// String renders the certificate table, the text ehlint -wcec prints
// and the golden file pins:
//
//	wcectable <prog> mode=<m> regions=<n> budget=<g>
//	repair <pc,...|-> complete=<0|1>
//	region <id> entry=<pc> kind=<k> wc=<cyc|unbounded> wce=<J|inf> bc=<cyc|unbounded> bce=<J|inf> verdict=<v>
func (t *WCECTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wcectable %s mode=%s regions=%d budget=%g\n",
		t.Prog, t.Mode, len(t.Regions), t.BudgetJ)
	if len(t.Repair) == 0 {
		fmt.Fprintf(&b, "repair - complete=%d\n", boolInt(t.RepairComplete))
	} else {
		pcs := make([]string, len(t.Repair))
		for i, pc := range t.Repair {
			pcs[i] = strconv.Itoa(pc)
		}
		fmt.Fprintf(&b, "repair %s complete=%d\n", strings.Join(pcs, ","), boolInt(t.RepairComplete))
	}
	for i := range t.Regions {
		r := &t.Regions[i]
		fmt.Fprintf(&b, "region %d entry=%d kind=%s wc=%s wce=%s bc=%s bce=%s verdict=%s\n",
			r.ID, r.Entry, r.Kind,
			cyclesStr(r.WCCycles, r.WCUnbounded), jouleStr(r.WCEnergy),
			cyclesStr(r.BCCycles, r.BCUnbounded), jouleStr(r.BCEnergy),
			r.Verdict)
	}
	return b.String()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cyclesStr(c uint64, unbounded bool) string {
	if unbounded {
		return "unbounded"
	}
	return strconv.FormatUint(c, 10)
}

func jouleStr(e float64) string {
	if math.IsInf(e, 1) {
		return "inf"
	}
	return strconv.FormatFloat(e, 'g', -1, 64)
}

// JSON emits the table with unbounded bounds as nulls (IEEE infinities
// have no JSON encoding).
func (t *WCECTable) JSON() ([]byte, error) {
	type region struct {
		ID       int      `json:"id"`
		Entry    int      `json:"entry"`
		Kind     string   `json:"kind"`
		WCCycles *uint64  `json:"wc_cycles"`
		WCEnergy *float64 `json:"wce_joules"`
		BCCycles *uint64  `json:"bc_cycles"`
		BCEnergy *float64 `json:"bce_joules"`
		Verdict  string   `json:"verdict"`
	}
	type table struct {
		Prog           string   `json:"prog"`
		Mode           string   `json:"mode"`
		BudgetJ        float64  `json:"budget_joules"`
		Regions        []region `json:"regions"`
		Repair         []int    `json:"repair,omitempty"`
		RepairComplete bool     `json:"repair_complete"`
	}
	out := table{Prog: t.Prog, Mode: string(t.Mode), BudgetJ: t.BudgetJ,
		Repair: t.Repair, RepairComplete: t.RepairComplete}
	for i := range t.Regions {
		r := &t.Regions[i]
		jr := region{ID: r.ID, Entry: r.Entry, Kind: r.Kind, Verdict: string(r.Verdict)}
		if !r.WCUnbounded {
			wc, we := r.WCCycles, r.WCEnergy
			jr.WCCycles, jr.WCEnergy = &wc, &we
		}
		if !r.BCUnbounded {
			bc, be := r.BCCycles, r.BCEnergy
			jr.BCCycles, jr.BCEnergy = &bc, &be
		}
		out.Regions = append(out.Regions, jr)
	}
	return json.MarshalIndent(out, "", "  ")
}
