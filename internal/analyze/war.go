package analyze

// Write-after-read hazard analysis. Clank flags a store to word w as an
// idempotency violation when w's first access since the last checkpoint
// was a read. Checkpoints happen at dynamically chosen points
// (violations, buffer overflows, the watchdog, power failures), so the
// Clank-sound static predicate is global: a store S to w is hazardous
// iff some read of w reaches S with no intervening must-write of w.
// Clearing read-first state at programmer checkpoint sites would be
// unsound for Clank; the region-scoped pass that does clear at
// SysChkpt/SysTaskEnd is a separate reporting view for software
// checkpointing runtimes (Mementos, DINO), where re-execution restarts
// exactly at those sites.
//
// Both passes run word-granular (addr &^ 3), matching the tracking
// buffers in strategy.Clank.

import (
	"sort"

	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// maxSpanWords caps how many words a single imprecise access may
// contribute before the analysis gives up and goes to ⊤. It covers the
// default 256 KiB FRAM.
const maxSpanWords = 1 << 16

// wordSet is a set of word-aligned addresses with an explicit ⊤ ("may
// be any word").
type wordSet struct {
	top bool
	w   map[uint32]struct{}
}

func newWordSet() *wordSet { return &wordSet{w: make(map[uint32]struct{})} }

func (s *wordSet) clone() *wordSet {
	c := &wordSet{top: s.top, w: make(map[uint32]struct{}, len(s.w))}
	for k := range s.w {
		c.w[k] = struct{}{}
	}
	return c
}

func (s *wordSet) setTop() {
	s.top = true
	s.w = nil
}

func (s *wordSet) add(word uint32) {
	if s.top {
		return
	}
	s.w[word] = struct{}{}
}

func (s *wordSet) del(word uint32) {
	if s.top {
		return
	}
	delete(s.w, word)
}

func (s *wordSet) has(word uint32) bool {
	if s.top {
		return true
	}
	_, ok := s.w[word]
	return ok
}

func (s *wordSet) size() int {
	if s.top {
		return -1
	}
	return len(s.w)
}

// unionWith merges o into s and reports whether s changed.
func (s *wordSet) unionWith(o *wordSet) bool {
	if s.top {
		return false
	}
	if o.top {
		s.setTop()
		return true
	}
	changed := false
	for k := range o.w {
		if _, ok := s.w[k]; !ok {
			s.w[k] = struct{}{}
			changed = true
		}
	}
	return changed
}

func (s *wordSet) sorted() []uint32 {
	out := make([]uint32, 0, len(s.w))
	for k := range s.w {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// accessInfo is the resolved address of one load/store instruction.
type accessInfo struct {
	pc    int
	store bool
	size  uint32

	known      bool   // address interval bounded — loW..hiW valid
	exact      bool   // single known address
	addr       uint32 // when exact
	loW, hiW   uint32 // inclusive word-aligned span when known
	oob        bool   // no byte of the access can land in device memory
	misaligned bool   // exact word access with addr % 4 != 0
	huge       bool   // span wider than maxSpanWords — treated as ⊤
}

// validWord reports whether word address w lies in the device's SRAM
// or FRAM, the fixed geometry of mem.DefaultSRAMSize and
// mem.DefaultFRAMSize that every device runs with.
func validWord(w uint32) bool {
	return w < mem.SRAMBase+mem.DefaultSRAMSize ||
		(w >= mem.FRAMBase && w < mem.FRAMBase+mem.DefaultFRAMSize)
}

// resolveAccess interprets the address operand of the load/store at pc
// under the abstract state st.
func resolveAccess(pc int, in isa.Instr, st regState) *accessInfo {
	size := uint32(4)
	if in.Op == isa.LB || in.Op == isa.LBU || in.Op == isa.SB {
		size = 1
	}
	a := &accessInfo{pc: pc, store: in.Op.IsStore(), size: size}

	addr := st.r[in.Rs1].addImm(in.Imm)
	if c, ok := addr.isConst(); ok {
		a.known, a.exact, a.addr = true, true, c
		a.loW, a.hiW = c&^3, (c+size-1)&^3
		a.misaligned = size == 4 && c%4 != 0
		a.oob = !validWord(a.loW) && !validWord(a.hiW)
		return a
	}
	if addr.bounded() && addr.hi+int64(size)-1 <= maxU32 {
		lo, hi := uint32(addr.lo)&^3, (uint32(addr.hi)+size-1)&^3
		if (hi-lo)/4+1 > maxSpanWords {
			a.huge = true
			return a
		}
		a.known, a.loW, a.hiW = true, lo, hi
		oob := true
		for w := lo; ; w += 4 {
			if validWord(w) {
				oob = false
				break
			}
			if w >= hi {
				break
			}
		}
		a.oob = oob
		return a
	}
	return a // unknown: ⊤
}

// addSpan unions the access's device-valid words into s; an unresolved
// access sends s to ⊤.
func (a *accessInfo) addSpan(s *wordSet) {
	if !a.known {
		s.setTop()
		return
	}
	for w := a.loW; ; w += 4 {
		if validWord(w) {
			s.add(w)
		}
		if w >= a.hiW {
			break
		}
	}
}

// Hazard is one store instruction whose target word may have been read
// first since the last checkpoint.
type Hazard struct {
	PC    int      `json:"pc"`
	Top   bool     `json:"top,omitempty"` // word set unbounded
	Words []uint32 `json:"words,omitempty"`
}

// warState is the per-point state of a WAR pass: R holds read-first
// live words; W (region pass only) the distinct words stored since the
// last boundary, which sizes the write-first buffer.
type warState struct {
	R *wordSet
	W *wordSet // nil when not tracked
}

func (s *warState) clone() *warState {
	c := &warState{R: s.R.clone()}
	if s.W != nil {
		c.W = s.W.clone()
	}
	return c
}

func (s *warState) unionWith(o *warState) bool {
	ch := s.R.unionWith(o.R)
	if s.W != nil && o.W != nil {
		ch = s.W.unionWith(o.W) || ch
	}
	return ch
}

// warResult is one pass's output.
type warResult struct {
	hazards   []Hazard
	peakRead  int // max live read-first words at any point; -1 unbounded
	peakWrite int // region pass: max distinct stored words; -1 unbounded
}

// runWAR executes the hazard dataflow. boundaries maps SYS codes that
// clear the tracking state (nil for the global, Clank-sound pass);
// pcBounds marks instruction indices that clear the state *before* the
// instruction executes (the task decomposition pass's commit-before-
// store boundaries); trackW additionally tracks stored-word pressure.
func runWAR(g *cfg, acc []*accessInfo, boundaries map[isa.Sys]bool, pcBounds map[int]bool, trackW bool) *warResult {
	n := len(g.blocks)
	newState := func() *warState {
		s := &warState{R: newWordSet()}
		if trackW {
			s.W = newWordSet()
		}
		return s
	}

	clearing := func(in isa.Instr) bool {
		return in.Op == isa.SYS && boundaries != nil && boundaries[isa.Sys(in.Imm)]
	}

	// step mutates st through one instruction; onStore (optional)
	// receives the hazard word set for each store before the kill.
	step := func(st *warState, pc int, onStore func(pc int, hz *wordSet)) {
		if pcBounds != nil && pcBounds[pc] {
			st.R = newWordSet()
			if st.W != nil {
				st.W = newWordSet()
			}
		}
		in := g.code[pc]
		if clearing(in) {
			st.R = newWordSet()
			if st.W != nil {
				st.W = newWordSet()
			}
			return
		}
		a := acc[pc]
		if a == nil {
			return
		}
		if !a.store {
			a.addSpan(st.R)
			return
		}
		if onStore != nil {
			onStore(pc, storeHazard(st.R, a))
		}
		if st.W != nil {
			a.addSpan(st.W)
		}
		if a.exact {
			st.R.del(a.addr &^ 3)
		}
	}

	in := make([]*warState, n)
	seen := make([]bool, n)
	var work []int
	if n > 0 {
		in[0] = newState()
		seen[0] = true
		work = append(work, 0)
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[id].clone()
		b := g.blocks[id]
		for pc := b.Start; pc < b.End; pc++ {
			step(st, pc, nil)
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				in[s] = st.clone()
				work = append(work, s)
				continue
			}
			if in[s].unionWith(st) {
				work = append(work, s)
			}
		}
	}

	// Final replay: collect hazards and peaks from the stable states.
	res := &warResult{}
	hazardAt := make(map[int]*wordSet)
	peak := func(cur, s int) int {
		if cur == -1 || s == -1 {
			return -1
		}
		return int(max64(int64(cur), int64(s)))
	}
	for id, b := range g.blocks {
		if !seen[id] {
			continue
		}
		st := in[id].clone()
		for pc := b.Start; pc < b.End; pc++ {
			step(st, pc, func(pc int, hz *wordSet) {
				if hz == nil {
					return
				}
				if prev, ok := hazardAt[pc]; ok {
					prev.unionWith(hz)
				} else {
					hazardAt[pc] = hz
				}
			})
			res.peakRead = peak(res.peakRead, st.R.size())
			if st.W != nil {
				res.peakWrite = peak(res.peakWrite, st.W.size())
			}
		}
	}

	pcs := make([]int, 0, len(hazardAt))
	for pc := range hazardAt {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		hz := hazardAt[pc]
		h := Hazard{PC: pc, Top: hz.top}
		if !hz.top {
			h.Words = hz.sorted()
		}
		res.hazards = append(res.hazards, h)
	}
	return res
}

// storeHazard intersects the live read-first set with the store's
// possible target words. Returns nil when the store provably cannot hit
// a read-first word.
func storeHazard(r *wordSet, a *accessInfo) *wordSet {
	if r.top && !a.known {
		hz := newWordSet()
		hz.setTop()
		return hz
	}
	if !a.known {
		// Store anywhere: every live read-first word is at risk.
		if len(r.w) == 0 {
			return nil
		}
		return r.clone()
	}
	hz := newWordSet()
	for w := a.loW; ; w += 4 {
		if validWord(w) && r.has(w) {
			hz.add(w)
		}
		if w >= a.hiW {
			break
		}
	}
	if len(hz.w) == 0 {
		return nil
	}
	return hz
}

// footprints returns the sets of words the reachable program may load
// and may store — the sound upper bounds on Clank's read-first and
// write-first buffer occupancy between any two checkpoints.
func footprints(g *cfg, fr *flowResult, acc []*accessInfo) (read, store *wordSet) {
	read, store = newWordSet(), newWordSet()
	for id, b := range g.blocks {
		if !fr.reach[id] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			a := acc[pc]
			if a == nil {
				continue
			}
			if a.store {
				a.addSpan(store)
			} else {
				a.addSpan(read)
			}
		}
	}
	return read, store
}
