package analyze

// Control-flow graph construction over an assembled EH32 instruction
// stream. Blocks are maximal straight-line runs; edges follow
// PC-relative branches, absolute JAL targets and the return-site
// approximation for JALR (an indirect jump may land at the instruction
// after any call, which over-approximates returns soundly for the
// dataflow passes).

import (
	"sort"

	"ehmodel/internal/isa"
)

// block is one basic block: instructions [Start, End).
type block struct {
	Start, End int
	Succs      []int // successor block ids
}

// edgeKind distinguishes how control reaches a successor, so the
// dataflow can apply branch-condition refinement on the right edge.
type edgeKind int

const (
	edgeFall edgeKind = iota // fallthrough / unconditional
	edgeTaken
)

type cfg struct {
	code    []isa.Instr
	blocks  []block
	blockOf []int // instruction index → block id
	// returnSites are the instructions after each JAL call (rd ≠ r0) —
	// the JALR successor approximation.
	returnSites []int
	// badTargets lists PCs whose branch/jump target lies outside the
	// program (a guaranteed runtime fault).
	badTargets []int
}

// buildCFG partitions code into blocks and wires the edges.
func buildCFG(code []isa.Instr) *cfg {
	n := len(code)
	g := &cfg{code: code}
	leader := make([]bool, n+1)
	leader[0] = true
	mark := func(t int) {
		if t >= 0 && t < n {
			leader[t] = true
		}
	}
	for pc, in := range code {
		switch {
		case in.Op.IsBranch():
			mark(pc + int(in.Imm))
			mark(pc + 1)
		case in.Op == isa.JAL:
			mark(int(in.Imm))
			mark(pc + 1)
			if in.Rd != isa.R0 {
				g.returnSites = append(g.returnSites, pc+1)
			}
		case in.Op == isa.JALR:
			mark(pc + 1)
		case in.Op == isa.SYS && isa.Sys(in.Imm) == isa.SysHalt:
			mark(pc + 1)
		}
	}

	g.blockOf = make([]int, n)
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			id := len(g.blocks)
			g.blocks = append(g.blocks, block{Start: start, End: pc})
			for i := start; i < pc; i++ {
				g.blockOf[i] = id
			}
			start = pc
		}
	}

	inRange := func(t int) bool { return t >= 0 && t < n }
	for id := range g.blocks {
		b := &g.blocks[id]
		last := b.End - 1
		in := code[last]
		addEdge := func(t int) {
			if !inRange(t) {
				g.badTargets = append(g.badTargets, last)
				return
			}
			b.Succs = append(b.Succs, g.blockOf[t])
		}
		switch {
		case in.Op.IsBranch():
			addEdge(last + 1)           // edge 0: fallthrough
			addEdge(last + int(in.Imm)) // edge 1: taken
		case in.Op == isa.JAL:
			addEdge(int(in.Imm))
		case in.Op == isa.JALR:
			for _, rs := range g.returnSites {
				if inRange(rs) {
					b.Succs = append(b.Succs, g.blockOf[rs])
				}
			}
		case in.Op == isa.SYS && isa.Sys(in.Imm) == isa.SysHalt:
			// no successors
		default:
			addEdge(b.End)
		}
	}
	sort.Ints(g.badTargets)
	return g
}

// succEdges enumerates (succ, kind) pairs of a block. For conditional
// branches the first successor is the fallthrough and the second the
// taken edge (when both resolved in range).
func (g *cfg) succEdges(id int) []struct {
	To   int
	Kind edgeKind
} {
	b := g.blocks[id]
	last := g.code[b.End-1]
	out := make([]struct {
		To   int
		Kind edgeKind
	}, 0, len(b.Succs))
	for i, s := range b.Succs {
		k := edgeFall
		if last.Op.IsBranch() && len(b.Succs) == 2 && i == 1 {
			k = edgeTaken
		} else if last.Op.IsBranch() && len(b.Succs) == 1 {
			// One edge fell out of range; classify the surviving one by
			// comparing against the fallthrough target.
			if g.blocks[s].Start != b.End {
				k = edgeTaken
			}
		}
		out = append(out, struct {
			To   int
			Kind edgeKind
		}{s, k})
	}
	return out
}

// succ is the block graph's successor function for sccs and cyclic.
func (g *cfg) succ(v, i int) (int, bool) {
	if s := g.blocks[v].Succs; i < len(s) {
		return s[i], true
	}
	return 0, false
}

// sccs returns the strongly connected components of the graph whose
// nodes are the ids v in [0, n) with in(v), in reverse topological
// order (Tarjan), each sorted ascending. succ(v, i) is v's i-th
// successor, ok false past the last; edges to ids outside the graph are
// skipped. Both the block graph of analyzeLoops and the PC-keyed
// collapse graph of the WCEC pass run on it. Restricting and recursing
// below a loop header is how nested loops are recovered from maximal
// SCCs.
func sccs(n int, in func(v int) bool, succ func(v, i int) (w int, ok bool)) [][]int {
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0

	// Iterative Tarjan to stay safe on long chains.
	type frame struct {
		v, succIdx int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 || !in(root) {
			continue
		}
		dfs = append(dfs[:0], frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if w, ok := succ(f.v, f.succIdx); ok {
				f.succIdx++
				if !in(w) {
					continue
				}
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, 0})
				} else if onStack[w] {
					low[f.v] = min(low[f.v], index[w])
				}
				continue
			}
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	return out
}

// cyclic reports whether the SCC comp actually contains a cycle (more
// than one node, or a self edge).
func cyclic(comp []int, succ func(v, i int) (w int, ok bool)) bool {
	if len(comp) > 1 {
		return true
	}
	for i := 0; ; i++ {
		w, ok := succ(comp[0], i)
		if !ok {
			return false
		}
		if w == comp[0] {
			return true
		}
	}
}
