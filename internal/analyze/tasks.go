package analyze

// tasks.go — automatic task decomposition for checkpoint-free,
// Alpaca-style task runtimes. A task runtime executes tasks with
// write-privatized buffers and commits atomically at task boundaries;
// on a power failure it re-executes from the last committed boundary
// with no volatile checkpoint to restore. Re-execution is only safe
// when tasks are idempotent — no task may read a word it has already
// overwritten — so the decomposition reuses the WAR machinery: starting
// from the program's explicit task-end markers, every store the
// region-scoped WAR pass still flags becomes a commit-before-store
// boundary, iterated to a fixed point (cutting a hazard can only shrink
// the remaining read-first state, so the iteration is monotone).
//
// The per-task static write-set footprints size the privatization
// buffer the way Eq. 15 sizes Clank's circular buffer: a buffer of
// BufWords words provably never overflows, and BufWords·τ_store prices
// the worst-case commit period.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
)

// Task boundary kinds.
const (
	// TaskEntry is the program entry.
	TaskEntry = "entry"
	// TaskSysEnd is an entry after an explicit SYS task-end marker.
	TaskSysEnd = "task-end"
	// TaskWARCut is a commit-before-store WAR cut: the runtime must
	// commit immediately before executing the entry instruction.
	TaskWARCut = "war-store"
)

// Task is one idempotent execution unit: execution from Entry up to
// (but not across) the next task boundary. Every WAR hazard inside the
// task has been cut, so re-running it from Entry after a power failure
// reads the same values it read the first time.
type Task struct {
	ID    int    `json:"id"`
	Entry int    `json:"entry"` // entry PC
	Kind  string `json:"kind"`  // boundary kind that created the entry
	// ReadWords counts distinct words the task may load; -1 unbounded.
	ReadWords int `json:"read_words"`
	// StoreTop marks an unresolvable store: the write set is unbounded
	// and StoreWords is nil.
	StoreTop bool `json:"store_top,omitempty"`
	// StoreWords is the sorted static write-set footprint — the words a
	// privatization buffer must hold while this task is in flight.
	StoreWords []uint32 `json:"store_words,omitempty"`
}

// TaskTable is the serializable result of the decomposition pass.
type TaskTable struct {
	Prog  string `json:"prog"`
	Tasks []Task `json:"tasks"`
	// Boundaries are the WAR-cut instruction indices: a task runtime
	// commits immediately before executing these PCs.
	Boundaries []int `json:"boundaries,omitempty"`
	// BufWords is the privatization-buffer bound: the largest task
	// write set in words, -1 when some task is unbounded. A buffer of
	// BufWords words provably never overflows — the task-runtime analog
	// of the Eq. 15 circular-buffer bound.
	BufWords int `json:"buf_words"`
	// TauStore is the static cycles-per-store of the innermost simple
	// store loop (0 when the program has none); BufWords·TauStore
	// estimates the worst-case commit period the way Eq. 15 prices
	// (N−n+1+w)·τ_store.
	TauStore float64 `json:"tau_store,omitempty"`
}

// Tasks decomposes prog into idempotent tasks, anchored on SysTaskEnd,
// the marker task runtimes commit at. The zero Options picks the device
// memory defaults.
func Tasks(prog *asm.Program, o Options) (*TaskTable, error) {
	p, err := prepare(prog, o)
	if err != nil {
		return nil, err
	}
	return p.tasks(), nil
}

// tasks runs the decomposition over the prepared program.
func (p *program) tasks() *TaskTable {
	prog, g, fr, acc, lay := p.prog, p.g, p.fr, p.acc, p.lay
	sysBounds := map[isa.Sys]bool{isa.SysTaskEnd: true}

	// Fixed point: every store the WAR pass still flags becomes a
	// boundary. Each round adds at least one PC or stops, so the loop
	// is bounded by the instruction count.
	pcBounds := make(map[int]bool)
	for i := 0; i <= len(prog.Code); i++ {
		res := runWAR(g, acc, sysBounds, pcBounds, false, lay)
		grew := false
		for _, h := range res.hazards {
			if !pcBounds[h.PC] {
				pcBounds[h.PC] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}

	// Task entries: program entry, the instruction after every
	// reachable task-end marker, and every WAR cut. A WAR cut wins
	// when it collides with another kind — the runtime commits before
	// that PC either way.
	kindAt := map[int]string{0: TaskEntry}
	for pc, in := range prog.Code {
		if in.Op == isa.SYS && isa.Sys(in.Imm) == isa.SysTaskEnd && pc+1 < len(prog.Code) {
			if _, taken := kindAt[pc+1]; !taken {
				kindAt[pc+1] = TaskSysEnd
			}
		}
	}
	for pc := range pcBounds {
		if pc != 0 {
			kindAt[pc] = TaskWARCut
		}
	}

	t := &TaskTable{Prog: prog.Name, BufWords: 0}
	for pc := range pcBounds {
		t.Boundaries = append(t.Boundaries, pc)
	}
	sort.Ints(t.Boundaries)

	entries := make([]int, 0, len(kindAt))
	for pc := range kindAt {
		entries = append(entries, pc)
	}
	sort.Ints(entries)
	for _, pc := range entries {
		if !fr.reach[g.blockOf[pc]] {
			continue
		}
		reads, stores := taskFootprint(g, acc, pcBounds, pc, lay)
		task := Task{
			ID:        len(t.Tasks),
			Entry:     pc,
			Kind:      kindAt[pc],
			ReadWords: reads.size(),
			StoreTop:  stores.top,
		}
		if !stores.top {
			if ws := stores.sorted(); len(ws) > 0 {
				task.StoreWords = ws
			}
		}
		t.Tasks = append(t.Tasks, task)
		if t.BufWords >= 0 {
			if stores.top {
				t.BufWords = -1
			} else if n := len(task.StoreWords); n > t.BufWords {
				t.BufWords = n
			}
		}
	}

	for _, l := range analyzeLoops(g, sysBounds) {
		if l.Simple && l.Stores > 0 && (t.TauStore == 0 || l.TauStore < t.TauStore) {
			t.TauStore = l.TauStore
		}
	}
	return t
}

// taskFootprint collects the read and store word sets of the task
// entered at entry: every instruction reachable from entry without
// crossing a task boundary. A boundary PC other than the entry itself
// starts the next task and is excluded; task-end markers and halts
// close the task.
func taskFootprint(g *cfg, acc []*accessInfo, pcBounds map[int]bool, entry int, lay memLayout) (reads, stores *wordSet) {
	reads, stores = newWordSet(), newWordSet()
	seen := map[int]bool{entry: true}
	work := []int{entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc != entry && pcBounds[pc] {
			continue
		}
		if a := acc[pc]; a != nil {
			if a.store {
				a.addSpan(stores, lay)
			} else {
				a.addSpan(reads, lay)
			}
		}
		in := g.code[pc]
		if in.Op == isa.SYS {
			if s := isa.Sys(in.Imm); s == isa.SysHalt || s == isa.SysTaskEnd {
				continue
			}
		}
		b := g.blocks[g.blockOf[pc]]
		if pc+1 < b.End {
			if !seen[pc+1] {
				seen[pc+1] = true
				work = append(work, pc+1)
			}
			continue
		}
		for _, s := range b.Succs {
			spc := g.blocks[s].Start
			if !seen[spc] {
				seen[spc] = true
				work = append(work, spc)
			}
		}
	}
	return reads, stores
}

// BoundarySet returns the WAR-cut boundaries as a table indexed by PC,
// the form the task runtime tests before every instruction: true at a
// boundary, false elsewhere and beyond the table's end, nil when there
// is no boundary.
func (t *TaskTable) BoundarySet() []bool {
	n := 0
	for _, pc := range t.Boundaries {
		n = max(n, pc+1)
	}
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for _, pc := range t.Boundaries {
		if pc >= 0 {
			out[pc] = true
		}
	}
	return out
}

// FootprintAt returns the static write-set of the task entered at PC
// entry. top reports an unbounded set; ok is false when entry is not a
// task entry.
func (t *TaskTable) FootprintAt(entry uint32) (words []uint32, top, ok bool) {
	for i := range t.Tasks {
		if t.Tasks[i].Entry == int(entry) {
			return t.Tasks[i].StoreWords, t.Tasks[i].StoreTop, true
		}
	}
	return nil, false, false
}

// String renders the table, the text ehlint -tasks prints and the
// golden file pins (JSON is the machine-readable form):
//
//	tasktable <prog> tasks=<n> bufwords=<n> taustore=<g>
//	boundaries <pc,pc,...|->
//	task <id> entry=<pc> kind=<kind> reads=<n> words=<top|-|w,w,...>
func (t *TaskTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasktable %s tasks=%d bufwords=%d taustore=%s\n",
		t.Prog, len(t.Tasks), t.BufWords, strconv.FormatFloat(t.TauStore, 'g', -1, 64))
	b.WriteString("boundaries ")
	if len(t.Boundaries) == 0 {
		b.WriteString("-")
	}
	for i, pc := range t.Boundaries {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%d", pc)
	}
	b.WriteString("\n")
	for _, task := range t.Tasks {
		fmt.Fprintf(&b, "task %d entry=%d kind=%s reads=%d words=",
			task.ID, task.Entry, task.Kind, task.ReadWords)
		switch {
		case task.StoreTop:
			b.WriteString("top")
		case len(task.StoreWords) == 0:
			b.WriteString("-")
		default:
			for i, w := range task.StoreWords {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%#x", w)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
