// Package asm provides a programmatic assembler for EH32. Workloads are
// written against a Builder — labels, branches, data directives and a
// few pseudo-instructions — and assembled into a Program the device
// simulator loads. It plays the role GCC plays in the paper's
// evaluation: turning benchmark kernels into machine code with known
// addresses and instruction mixes.
package asm

import (
	"fmt"

	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// Segment selects where a data directive is placed.
type Segment int

const (
	// SRAM places data in volatile memory (checkpointed, lost on power
	// failure) — the layout conventional systems like Mementos use.
	SRAM Segment = iota
	// FRAM places data in nonvolatile memory — the layout Clank-style
	// and NVP systems use.
	FRAM
)

func (s Segment) String() string {
	if s == SRAM {
		return "sram"
	}
	return "fram"
}

// Program is an assembled EH32 binary image. A Program must not be
// modified after assembly: the cells of a figure pass share one
// instance per workload and options (workload.Program), and devices and
// cell keys only read it.
type Program struct {
	Name      string
	Code      []isa.Instr
	Words     []uint32 // binary encodings, index-aligned with Code
	SRAMImage []byte
	FRAMImage []byte
	Symbols   map[string]uint32 // data symbol → absolute address
	Labels    map[string]uint32 // code label → instruction index
	Entry     uint32
}

// BuildError is an Assemble-time failure. Besides the program name and
// instruction index it carries the offending instruction's rendered
// text, so diagnostics show the source line rather than a bare number.
type BuildError struct {
	Prog string
	Site int    // instruction index; -1 when program-wide
	Line string // rendered instruction at Site; "" when program-wide
	Msg  string
}

func (e *BuildError) Error() string {
	switch {
	case e.Site < 0:
		return fmt.Sprintf("asm(%s): %s", e.Prog, e.Msg)
	case e.Line != "":
		return fmt.Sprintf("asm(%s): instruction %d `%s`: %s", e.Prog, e.Site, e.Line, e.Msg)
	default:
		return fmt.Sprintf("asm(%s): instruction %d: %s", e.Prog, e.Site, e.Msg)
	}
}

// buildErr constructs a BuildError for instruction index site, rendering
// the instruction text when the site is in range.
func (b *Builder) buildErr(site int, format string, args ...any) *BuildError {
	line := ""
	if site >= 0 && site < len(b.code) {
		line = b.code[site].String()
	}
	return &BuildError{Prog: b.name, Site: site, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// fixupKind distinguishes how a label reference is patched.
type fixupKind int

const (
	fixRelative fixupKind = iota // branch: imm = target − site
	fixAbsolute                  // jal: imm = target
)

type fixup struct {
	site  int // instruction index to patch
	label string
	kind  fixupKind
}

// Builder accumulates instructions and data, then assembles them.
// Methods record the first error and make subsequent calls no-ops, so
// straight-line building code needs a single error check at Assemble.
type Builder struct {
	name    string
	code    []isa.Instr
	labels  map[string]uint32
	fixups  []fixup
	symbols map[string]uint32
	sram    []byte
	fram    []byte
	seg     Segment
	err     error
}

// New returns an empty Builder for a named program.
func New(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]uint32),
		symbols: make(map[string]uint32),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm(%s): %s", b.name, fmt.Sprintf(format, args...))
	}
}

// emit appends one instruction.
func (b *Builder) emit(in isa.Instr) {
	if b.err != nil {
		return
	}
	b.code = append(b.code, in)
}

// PC returns the index the next instruction will occupy.
func (b *Builder) PC() uint32 { return uint32(len(b.code)) }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if b.err != nil {
		return
	}
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = b.PC()
}

// --- data directives ---

// Seg switches the active data segment for subsequent directives.
func (b *Builder) Seg(s Segment) { b.seg = s }

// segBuf returns the active segment's buffer pointer and base address.
func (b *Builder) segBuf() (*[]byte, uint32) {
	if b.seg == SRAM {
		return &b.sram, mem.SRAMBase
	}
	return &b.fram, mem.FRAMBase
}

// defineSymbol registers name at the current end of the active segment,
// word-aligned, and returns its address.
func (b *Builder) defineSymbol(name string) uint32 {
	buf, base := b.segBuf()
	for len(*buf)%4 != 0 {
		*buf = append(*buf, 0)
	}
	addr := base + uint32(len(*buf))
	if name != "" {
		if _, dup := b.symbols[name]; dup {
			b.fail("duplicate symbol %q", name)
			return addr
		}
		b.symbols[name] = addr
	}
	return addr
}

// Word defines a symbol holding the given 32-bit values.
func (b *Builder) Word(name string, vals ...uint32) {
	if b.err != nil {
		return
	}
	b.defineSymbol(name)
	buf, _ := b.segBuf()
	for _, v := range vals {
		*buf = append(*buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// Bytes defines a symbol holding raw bytes.
func (b *Builder) Bytes(name string, data []byte) {
	if b.err != nil {
		return
	}
	b.defineSymbol(name)
	buf, _ := b.segBuf()
	*buf = append(*buf, data...)
}

// Space defines a symbol with n zero bytes.
func (b *Builder) Space(name string, n int) {
	if b.err != nil {
		return
	}
	if n < 0 {
		b.fail("negative space %d for %q", n, name)
		return
	}
	b.Bytes(name, make([]byte, n))
}

// --- R-type ---

func (b *Builder) rtype(op isa.Op, rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Add emits rd = rs1 + rs2; the remaining R-type helpers follow suit.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.ADD, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.SUB, rd, rs1, rs2) }
func (b *Builder) And(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.AND, rd, rs1, rs2) }
func (b *Builder) Or(rd, rs1, rs2 isa.Reg)   { b.rtype(isa.OR, rd, rs1, rs2) }
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.XOR, rd, rs1, rs2) }
func (b *Builder) Sll(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.SLL, rd, rs1, rs2) }
func (b *Builder) Srl(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.SRL, rd, rs1, rs2) }
func (b *Builder) Sra(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.SRA, rd, rs1, rs2) }
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.SLT, rd, rs1, rs2) }
func (b *Builder) Sltu(rd, rs1, rs2 isa.Reg) { b.rtype(isa.SLTU, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.MUL, rd, rs1, rs2) }
func (b *Builder) Div(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.DIV, rd, rs1, rs2) }
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg)  { b.rtype(isa.REM, rd, rs1, rs2) }

// --- I-type ---

func (b *Builder) itype(op isa.Op, rd, rs1 isa.Reg, imm int32) {
	if b.err != nil {
		return
	}
	if !isa.FitsImm(imm) {
		b.fail("%v immediate %d out of range", op, imm)
		return
	}
	b.emit(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Addi emits rd = rs1 + imm; the remaining I-type helpers follow suit.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int32) { b.itype(isa.ADDI, rd, rs1, imm) }
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int32) { b.itype(isa.ANDI, rd, rs1, imm) }
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int32)  { b.itype(isa.ORI, rd, rs1, imm) }
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int32) { b.itype(isa.XORI, rd, rs1, imm) }
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int32) { b.itype(isa.SLLI, rd, rs1, imm) }
func (b *Builder) Srli(rd, rs1 isa.Reg, imm int32) { b.itype(isa.SRLI, rd, rs1, imm) }
func (b *Builder) Srai(rd, rs1 isa.Reg, imm int32) { b.itype(isa.SRAI, rd, rs1, imm) }
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int32) { b.itype(isa.SLTI, rd, rs1, imm) }
func (b *Builder) Lui(rd isa.Reg, imm int32)       { b.itype(isa.LUI, rd, isa.R0, imm) }

// --- memory ---

// Lw emits rd = mem32[rs1+off]; Lb/Lbu are the byte variants.
func (b *Builder) Lw(rd, rs1 isa.Reg, off int32)  { b.itype(isa.LW, rd, rs1, off) }
func (b *Builder) Lb(rd, rs1 isa.Reg, off int32)  { b.itype(isa.LB, rd, rs1, off) }
func (b *Builder) Lbu(rd, rs1 isa.Reg, off int32) { b.itype(isa.LBU, rd, rs1, off) }

// Sw emits mem32[base+off] = src; Sb is the byte variant.
func (b *Builder) Sw(src, base isa.Reg, off int32) { b.itype(isa.SW, src, base, off) }
func (b *Builder) Sb(src, base isa.Reg, off int32) { b.itype(isa.SB, src, base, off) }

// --- control flow ---

func (b *Builder) branch(op isa.Op, a, rb isa.Reg, label string) {
	if b.err != nil {
		return
	}
	b.fixups = append(b.fixups, fixup{site: len(b.code), label: label, kind: fixRelative})
	b.emit(isa.Instr{Op: op, Rd: a, Rs1: rb})
}

// Beq branches to label when a == b; the other helpers mirror their ops.
func (b *Builder) Beq(a, rb isa.Reg, label string)  { b.branch(isa.BEQ, a, rb, label) }
func (b *Builder) Bne(a, rb isa.Reg, label string)  { b.branch(isa.BNE, a, rb, label) }
func (b *Builder) Blt(a, rb isa.Reg, label string)  { b.branch(isa.BLT, a, rb, label) }
func (b *Builder) Bge(a, rb isa.Reg, label string)  { b.branch(isa.BGE, a, rb, label) }
func (b *Builder) Bltu(a, rb isa.Reg, label string) { b.branch(isa.BLTU, a, rb, label) }
func (b *Builder) Bgeu(a, rb isa.Reg, label string) { b.branch(isa.BGEU, a, rb, label) }

// Jal jumps to label, saving the return address in rd.
func (b *Builder) Jal(rd isa.Reg, label string) {
	if b.err != nil {
		return
	}
	b.fixups = append(b.fixups, fixup{site: len(b.code), label: label, kind: fixAbsolute})
	b.emit(isa.Instr{Op: isa.JAL, Rd: rd})
}

// Jalr jumps to rs1+imm, saving the return address in rd.
func (b *Builder) Jalr(rd, rs1 isa.Reg, imm int32) { b.itype(isa.JALR, rd, rs1, imm) }

// Call is Jal with the conventional link register.
func (b *Builder) Call(label string) { b.Jal(isa.LR, label) }

// Ret returns through the link register.
func (b *Builder) Ret() { b.Jalr(isa.R0, isa.LR, 0) }

// Jump is an unconditional jump that clobbers no register.
func (b *Builder) Jump(label string) { b.Jal(isa.R0, label) }

// --- SYS ---

func (b *Builder) sys(s isa.Sys, rd, rs1 isa.Reg) {
	b.emit(isa.Instr{Op: isa.SYS, Rd: rd, Rs1: rs1, Imm: int32(s)})
}

// Halt stops the program; the runtime commits final state.
func (b *Builder) Halt() { b.sys(isa.SysHalt, isa.R0, isa.R0) }

// Chkpt marks a Mementos-style checkpoint site.
func (b *Builder) Chkpt() { b.sys(isa.SysChkpt, isa.R0, isa.R0) }

// TaskBegin and TaskEnd delimit DINO/Chain-style atomic tasks.
func (b *Builder) TaskBegin() { b.sys(isa.SysTaskBegin, isa.R0, isa.R0) }
func (b *Builder) TaskEnd()   { b.sys(isa.SysTaskEnd, isa.R0, isa.R0) }

// Out appends rs's value to the commit-buffered output stream.
func (b *Builder) Out(rs isa.Reg) { b.sys(isa.SysOut, isa.R0, rs) }

// Sense reads the next deterministic sensor sample into rd.
func (b *Builder) Sense(rd isa.Reg) { b.sys(isa.SysSense, rd, isa.R0) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Addi(isa.R0, isa.R0, 0) }

// --- pseudo-instructions ---

// Mv copies rs to rd.
func (b *Builder) Mv(rd, rs isa.Reg) { b.Add(rd, rs, isa.R0) }

// Li loads an arbitrary 32-bit constant, expanding to LUI+ORI when the
// value does not fit the 18-bit immediate.
func (b *Builder) Li(rd isa.Reg, v uint32) {
	if isa.FitsImm(int32(v)) {
		b.Addi(rd, isa.R0, int32(v))
		return
	}
	hi := v >> 14 // 18 significant bits
	lo := int32(v & 0x3FFF)
	s := int32(hi)
	if hi > uint32(isa.ImmMax) {
		s = int32(hi) - (1 << 18)
	}
	b.Lui(rd, s)
	if lo != 0 {
		b.Ori(rd, rd, lo)
	}
}

// La loads a data symbol's address. The symbol must exist by Assemble
// time; La is resolved immediately, so define data before referencing
// it.
func (b *Builder) La(rd isa.Reg, symbol string) {
	if b.err != nil {
		return
	}
	addr, ok := b.symbols[symbol]
	if !ok {
		b.fail("undefined symbol %q (define data before La)", symbol)
		return
	}
	b.Li(rd, addr)
}

// Symbol returns a defined data symbol's address.
func (b *Builder) Symbol(name string) (uint32, bool) {
	a, ok := b.symbols[name]
	return a, ok
}

// Assemble resolves labels, encodes every instruction and returns the
// program.
func (b *Builder) Assemble() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.code) == 0 {
		return nil, b.buildErr(-1, "empty program")
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, b.buildErr(f.site, "undefined label %q", f.label)
		}
		var imm int32
		switch f.kind {
		case fixRelative:
			imm = int32(target) - int32(f.site)
		case fixAbsolute:
			imm = int32(target)
		}
		if !isa.FitsImm(imm) {
			return nil, b.buildErr(f.site, "label %q out of immediate range", f.label)
		}
		b.code[f.site].Imm = imm
	}
	words := make([]uint32, len(b.code))
	for i, in := range b.code {
		w, err := in.Encode()
		if err != nil {
			return nil, b.buildErr(i, "%v", err)
		}
		words[i] = w
	}
	return &Program{
		Name:      b.name,
		Code:      append([]isa.Instr(nil), b.code...),
		Words:     words,
		SRAMImage: append([]byte(nil), b.sram...),
		FRAMImage: append([]byte(nil), b.fram...),
		Symbols:   copyMap(b.symbols),
		Labels:    copyMap(b.labels),
	}, nil
}

func copyMap(m map[string]uint32) map[string]uint32 {
	out := make(map[string]uint32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
