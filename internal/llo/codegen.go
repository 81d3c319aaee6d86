package llo

import (
	"fmt"
	"sync"

	"cmo/internal/il"
	"cmo/internal/ir"
	"cmo/internal/obs"
	"cmo/internal/vpa"
	"cmo/internal/xform"
)

// Options selects the LLO pipeline variant.
type Options struct {
	// Level 1 optimizes within basic blocks only (naive stack code);
	// Level 2 is the full default intraprocedural pipeline.
	Level int
	// PBO enables profile-guided block layout and spill weighting.
	PBO bool
	// Span is the trace span this compilation nests under (the
	// driver's "llo" phase span); each routine gets a "codegen"
	// sub-span carrying its name. Zero Span = tracing off.
	Span obs.Span
	// Verify, when non-nil, is run on the optimized working copy just
	// before instruction emission — the last point where the routine
	// is still IL. A non-nil return aborts compilation of the routine.
	// The driver points this at internal/analyze when Options.Verify
	// is enabled, so a local-transform bug is caught before it is
	// buried in machine code.
	Verify func(*il.Function) error
}

// Compile translates one IL function into VPA machine code. The input
// function is not modified. Symbol references in the emitted code
// (CALL/LDG/STG/LDX/STX .Sym and PROBE ids) are *unrelocated*: .Sym
// holds the program-wide PID, and the linker rewrites it to an image
// index (see internal/link). The emitted code is position-independent
// in exactly the sense the paper's relocatable object form is.
func Compile(prog *il.Program, f *il.Function, opts Options) (*vpa.Func, error) {
	sp := opts.Span.ChildDetail("codegen", f.Name)
	defer sp.End()
	if f.NParams > maxArgs {
		return nil, fmt.Errorf("llo: %s has %d parameters; calling convention allows %d", f.Name, f.NParams, maxArgs)
	}
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			if b.Instrs[ii].Op == il.Call && len(b.Instrs[ii].Args) > maxArgs {
				return nil, fmt.Errorf("llo: %s: call with %d args; calling convention allows %d", f.Name, len(b.Instrs[ii].Args), maxArgs)
			}
		}
	}
	if opts.Level <= 1 {
		return compileO1(f)
	}
	return compileO2(f, opts)
}

// ---------------------------------------------------------------------------
// O2: full intraprocedural pipeline.

// derived is the CFG and liveness storage one O2 compilation
// recomputes into (ir's Reset); pooled, like xform's workspace, so
// compiling a routine does not reallocate it. Nothing compileO2
// returns points into it.
type derived struct {
	cfg  ir.CFG
	live ir.Liveness
}

var deriveds = sync.Pool{New: func() any { return new(derived) }}

func compileO2(f *il.Function, opts Options) (*vpa.Func, error) {
	w := f.Clone()
	xform.Optimize(w)
	if opts.Verify != nil {
		if err := opts.Verify(w); err != nil {
			return nil, fmt.Errorf("llo: verification failed after local optimization of %s: %w", w.Name, err)
		}
	}
	dv := deriveds.Get().(*derived)
	defer deriveds.Put(dv)
	c := &dv.cfg
	c.Reset(w)
	// Register allocation linearizes over RPO: any consistent
	// linearization is sound (intervals are extended by block
	// live-in/out), and RPO keeps loop bodies contiguous so the
	// intervals stay tight. Emission then uses the (possibly
	// profile-guided) layout order, which may sink cold blocks far
	// from their loops.
	allocOrder := Order(w, c, false)
	emitOrder := Order(w, c, opts.PBO)
	lv := &dv.live
	lv.Reset(w, c)
	alloc := Allocate(w, c, lv, allocOrder, opts.PBO)
	e := &emitter{f: w, alloc: alloc, blockPos: make([]int32, len(w.Blocks))}
	e.emitParamMoves()
	if err := e.emitBlocks(emitOrder); err != nil {
		return nil, err
	}
	e.patch()
	return &vpa.Func{Name: w.Name, Code: e.code, NSlots: alloc.NSlots}, nil
}

type fixup struct {
	at    int32
	block int32
}

type emitter struct {
	f        *il.Function
	alloc    *Alloc
	code     []vpa.Instr
	fixups   []fixup
	blockPos []int32
}

func (e *emitter) emit(in vpa.Instr) { e.code = append(e.code, in) }

func (e *emitter) loc(r il.Reg) Loc { return e.alloc.Loc[r] }

// readReg ensures the operand's value is in a machine register and
// returns it, using the given scratch register for constants and
// spilled values.
func (e *emitter) readReg(v il.Value, scratch uint8) uint8 {
	if v.IsConst {
		e.emit(vpa.Instr{Op: vpa.MOVI, Rd: scratch, Imm: v.Const})
		return scratch
	}
	l := e.loc(v.Reg)
	if l.Spilled {
		e.emit(vpa.Instr{Op: vpa.LDL, Rd: scratch, Imm: int64(l.Slot)})
		return scratch
	}
	return l.Reg
}

// operandB prepares the B operand of a three-operand instruction,
// preferring the immediate form.
func (e *emitter) operandB(v il.Value) (rb uint8, immB bool, imm int64) {
	if v.IsConst {
		return 0, true, v.Const
	}
	l := e.loc(v.Reg)
	if l.Spilled {
		e.emit(vpa.Instr{Op: vpa.LDL, Rd: scratchB, Imm: int64(l.Slot)})
		return scratchB, false, 0
	}
	return l.Reg, false, 0
}

// dstReg returns the register to compute a result into, plus the
// spill store to append when the destination lives in a frame slot.
func (e *emitter) dstReg(r il.Reg) (target uint8, store bool, slot int) {
	l := e.loc(r)
	if l.Spilled {
		return scratchD, true, l.Slot
	}
	return l.Reg, false, 0
}

func (e *emitter) finishDst(store bool, slot int, target uint8) {
	if store {
		e.emit(vpa.Instr{Op: vpa.STL, Imm: int64(slot), Ra: target})
	}
}

// emitParamMoves relocates incoming arguments (r1..rN) to the
// parameters' allocated homes.
func (e *emitter) emitParamMoves() {
	for p := 1; p <= e.f.NParams; p++ {
		l := e.loc(il.Reg(p))
		switch {
		case l.Spilled:
			e.emit(vpa.Instr{Op: vpa.STL, Imm: int64(l.Slot), Ra: uint8(p)})
		case l.Reg != uint8(p):
			e.emit(vpa.Instr{Op: vpa.MOV, Rd: l.Reg, Ra: uint8(p)})
		}
	}
}

var opMap = map[il.Op]vpa.OpCode{
	il.Add: vpa.ADD, il.Sub: vpa.SUB, il.Mul: vpa.MUL,
	il.Div: vpa.DIV, il.Rem: vpa.REM,
	il.Eq: vpa.CMPEQ, il.Ne: vpa.CMPNE, il.Lt: vpa.CMPLT,
	il.Le: vpa.CMPLE, il.Gt: vpa.CMPGT, il.Ge: vpa.CMPGE,
}

// log2OfPow2 returns (k, true) when v == 1<<k for k in 1..62.
func log2OfPow2(v int64) (int64, bool) {
	if v < 2 || v&(v-1) != 0 {
		return 0, false
	}
	k := int64(0)
	for v > 1 {
		v >>= 1
		k++
	}
	return k, true
}

func (e *emitter) emitBlocks(order []int32) error {
	for oi, bi := range order {
		e.blockPos[bi] = int32(len(e.code))
		b := e.f.Blocks[bi]
		next := int32(-1)
		if oi+1 < len(order) {
			next = order[oi+1]
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if err := e.instr(in, b, next); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *emitter) instr(in *il.Instr, b *il.Block, next int32) error {
	switch in.Op {
	case il.Nop:
	case il.Const:
		t, st, sl := e.dstReg(in.Dst)
		e.emit(vpa.Instr{Op: vpa.MOVI, Rd: t, Imm: in.A.Const})
		e.finishDst(st, sl, t)
	case il.Copy:
		t, st, sl := e.dstReg(in.Dst)
		if in.A.IsConst {
			e.emit(vpa.Instr{Op: vpa.MOVI, Rd: t, Imm: in.A.Const})
		} else {
			src := e.readReg(in.A, scratchA)
			if src != t || st {
				if src != t {
					e.emit(vpa.Instr{Op: vpa.MOV, Rd: t, Ra: src})
				}
			}
		}
		e.finishDst(st, sl, t)
	case il.Add, il.Sub, il.Mul, il.Div, il.Rem,
		il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge:
		t, st, sl := e.dstReg(in.Dst)
		ra := e.readReg(in.A, scratchA)
		// Strength reduction: multiply by a power of two becomes a
		// shift (the machine's MUL costs 3 cycles, SHL one).
		if in.Op == il.Mul && in.B.IsConst {
			if k, ok := log2OfPow2(in.B.Const); ok {
				e.emit(vpa.Instr{Op: vpa.SHL, Rd: t, Ra: ra, ImmB: true, Imm: k})
				e.finishDst(st, sl, t)
				return nil
			}
		}
		rb, immB, imm := e.operandB(in.B)
		e.emit(vpa.Instr{Op: opMap[in.Op], Rd: t, Ra: ra, Rb: rb, ImmB: immB, Imm: imm})
		e.finishDst(st, sl, t)
	case il.Neg, il.Not:
		t, st, sl := e.dstReg(in.Dst)
		ra := e.readReg(in.A, scratchA)
		op := vpa.NEG
		if in.Op == il.Not {
			op = vpa.NOT
		}
		e.emit(vpa.Instr{Op: op, Rd: t, Ra: ra})
		e.finishDst(st, sl, t)
	case il.LoadG:
		t, st, sl := e.dstReg(in.Dst)
		e.emit(vpa.Instr{Op: vpa.LDG, Rd: t, Sym: int32(in.Sym)})
		e.finishDst(st, sl, t)
	case il.StoreG:
		ra := e.readReg(in.A, scratchA)
		e.emit(vpa.Instr{Op: vpa.STG, Sym: int32(in.Sym), Ra: ra})
	case il.LoadX:
		t, st, sl := e.dstReg(in.Dst)
		idx := e.readReg(in.A, scratchA)
		e.emit(vpa.Instr{Op: vpa.LDX, Rd: t, Sym: int32(in.Sym), Ra: idx})
		e.finishDst(st, sl, t)
	case il.StoreX:
		idx := e.readReg(in.A, scratchA)
		rb, immB, imm := e.operandB(in.B)
		e.emit(vpa.Instr{Op: vpa.STX, Sym: int32(in.Sym), Ra: idx, Rb: rb, ImmB: immB, Imm: imm})
	case il.Call:
		for i, a := range in.Args {
			argReg := uint8(regArg0 + i)
			if a.IsConst {
				e.emit(vpa.Instr{Op: vpa.MOVI, Rd: argReg, Imm: a.Const})
				continue
			}
			l := e.loc(a.Reg)
			if l.Spilled {
				e.emit(vpa.Instr{Op: vpa.LDL, Rd: argReg, Imm: int64(l.Slot)})
			} else {
				e.emit(vpa.Instr{Op: vpa.MOV, Rd: argReg, Ra: l.Reg})
			}
		}
		e.emit(vpa.Instr{Op: vpa.CALL, Sym: int32(in.Sym)})
		if in.Dst != 0 {
			l := e.loc(in.Dst)
			if l.Spilled {
				e.emit(vpa.Instr{Op: vpa.STL, Imm: int64(l.Slot), Ra: regArg0})
			} else if l.Reg != regArg0 {
				e.emit(vpa.Instr{Op: vpa.MOV, Rd: l.Reg, Ra: regArg0})
			}
		}
	case il.Probe:
		e.emit(vpa.Instr{Op: vpa.PROBE, Imm: in.A.Const})
	case il.Ret:
		switch {
		case in.A.IsNone():
			// void return; r1 is ignored by the caller
		case in.A.IsConst:
			e.emit(vpa.Instr{Op: vpa.MOVI, Rd: regArg0, Imm: in.A.Const})
		default:
			l := e.loc(in.A.Reg)
			if l.Spilled {
				e.emit(vpa.Instr{Op: vpa.LDL, Rd: regArg0, Imm: int64(l.Slot)})
			} else if l.Reg != regArg0 {
				e.emit(vpa.Instr{Op: vpa.MOV, Rd: regArg0, Ra: l.Reg})
			}
		}
		e.emit(vpa.Instr{Op: vpa.RET})
	case il.Jmp:
		if b.T != next {
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.T})
			e.emit(vpa.Instr{Op: vpa.JMP})
		}
	case il.Br:
		cr := e.readReg(in.A, scratchA)
		switch {
		case b.F == next:
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.T})
			e.emit(vpa.Instr{Op: vpa.BRT, Ra: cr})
		case b.T == next:
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.F})
			e.emit(vpa.Instr{Op: vpa.BRF, Ra: cr})
		default:
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.T})
			e.emit(vpa.Instr{Op: vpa.BRT, Ra: cr})
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.F})
			e.emit(vpa.Instr{Op: vpa.JMP})
		}
	default:
		return fmt.Errorf("llo: cannot emit %s", in.Op)
	}
	return nil
}

func (e *emitter) patch() {
	for _, fx := range e.fixups {
		e.code[fx.at].Target = e.blockPos[fx.block]
	}
	if len(e.code) == 0 {
		e.emit(vpa.Instr{Op: vpa.RET})
	}
}

// ---------------------------------------------------------------------------
// O1: optimize within basic blocks only (naive stack code). This is
// the "+O1" baseline used for Mcad3 in Figure 1: every virtual
// register lives in a frame slot and every operation round-trips
// through scratch registers.

func compileO1(f *il.Function) (*vpa.Func, error) {
	e := &o1emitter{f: f, blockPos: make([]int32, len(f.Blocks))}
	// Parameters arrive in r1..rN; store them home.
	for p := 1; p <= f.NParams; p++ {
		e.emit(vpa.Instr{Op: vpa.STL, Imm: int64(p - 1), Ra: uint8(p)})
	}
	for bi := range f.Blocks {
		e.blockPos[bi] = int32(len(e.code))
		b := f.Blocks[bi]
		next := int32(bi + 1)
		if bi+1 >= len(f.Blocks) {
			next = -1
		}
		for ii := range b.Instrs {
			if err := e.instr(&b.Instrs[ii], b, next); err != nil {
				return nil, err
			}
		}
	}
	for _, fx := range e.fixups {
		e.code[fx.at].Target = e.blockPos[fx.block]
	}
	return &vpa.Func{Name: f.Name, Code: e.code, NSlots: int(f.NRegs)}, nil
}

type o1emitter struct {
	f        *il.Function
	code     []vpa.Instr
	fixups   []fixup
	blockPos []int32
}

func (e *o1emitter) emit(in vpa.Instr) { e.code = append(e.code, in) }

// slotOf maps a virtual register to its frame slot.
func slotOf(r il.Reg) int64 { return int64(r) - 1 }

// load brings an operand into the given scratch register.
func (e *o1emitter) load(v il.Value, scratch uint8) uint8 {
	if v.IsConst {
		e.emit(vpa.Instr{Op: vpa.MOVI, Rd: scratch, Imm: v.Const})
	} else {
		e.emit(vpa.Instr{Op: vpa.LDL, Rd: scratch, Imm: slotOf(v.Reg)})
	}
	return scratch
}

func (e *o1emitter) store(r il.Reg, from uint8) {
	e.emit(vpa.Instr{Op: vpa.STL, Imm: slotOf(r), Ra: from})
}

func (e *o1emitter) instr(in *il.Instr, b *il.Block, next int32) error {
	switch in.Op {
	case il.Nop:
	case il.Const:
		e.emit(vpa.Instr{Op: vpa.MOVI, Rd: scratchD, Imm: in.A.Const})
		e.store(in.Dst, scratchD)
	case il.Copy:
		e.load(in.A, scratchD)
		e.store(in.Dst, scratchD)
	case il.Add, il.Sub, il.Mul, il.Div, il.Rem,
		il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge:
		ra := e.load(in.A, scratchA)
		rb := e.load(in.B, scratchB)
		e.emit(vpa.Instr{Op: opMap[in.Op], Rd: scratchD, Ra: ra, Rb: rb})
		e.store(in.Dst, scratchD)
	case il.Neg, il.Not:
		ra := e.load(in.A, scratchA)
		op := vpa.NEG
		if in.Op == il.Not {
			op = vpa.NOT
		}
		e.emit(vpa.Instr{Op: op, Rd: scratchD, Ra: ra})
		e.store(in.Dst, scratchD)
	case il.LoadG:
		e.emit(vpa.Instr{Op: vpa.LDG, Rd: scratchD, Sym: int32(in.Sym)})
		e.store(in.Dst, scratchD)
	case il.StoreG:
		ra := e.load(in.A, scratchA)
		e.emit(vpa.Instr{Op: vpa.STG, Sym: int32(in.Sym), Ra: ra})
	case il.LoadX:
		idx := e.load(in.A, scratchA)
		e.emit(vpa.Instr{Op: vpa.LDX, Rd: scratchD, Sym: int32(in.Sym), Ra: idx})
		e.store(in.Dst, scratchD)
	case il.StoreX:
		idx := e.load(in.A, scratchA)
		val := e.load(in.B, scratchB)
		e.emit(vpa.Instr{Op: vpa.STX, Sym: int32(in.Sym), Ra: idx, Rb: val})
	case il.Call:
		for i, a := range in.Args {
			e.load(a, uint8(regArg0+i))
		}
		e.emit(vpa.Instr{Op: vpa.CALL, Sym: int32(in.Sym)})
		if in.Dst != 0 {
			e.store(in.Dst, regArg0)
		}
	case il.Probe:
		e.emit(vpa.Instr{Op: vpa.PROBE, Imm: in.A.Const})
	case il.Ret:
		if !in.A.IsNone() {
			e.load(in.A, regArg0)
		}
		e.emit(vpa.Instr{Op: vpa.RET})
	case il.Jmp:
		if b.T != next {
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.T})
			e.emit(vpa.Instr{Op: vpa.JMP})
		}
	case il.Br:
		cr := e.load(in.A, scratchA)
		e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.T})
		e.emit(vpa.Instr{Op: vpa.BRT, Ra: cr})
		if b.F != next {
			e.fixups = append(e.fixups, fixup{at: int32(len(e.code)), block: b.F})
			e.emit(vpa.Instr{Op: vpa.JMP})
		}
	default:
		return fmt.Errorf("llo: O1 cannot emit %s", in.Op)
	}
	return nil
}
