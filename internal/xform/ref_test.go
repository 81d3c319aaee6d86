package xform

import (
	"fmt"
	"reflect"
	"testing"

	"cmo/internal/il"
	"cmo/internal/iltest"
	"cmo/internal/ir"
)

// The ref* functions are the allocate-per-round pipeline the
// workspace replaced, kept verbatim as the reference: the workspace
// version must leave byte-identical bodies. They compute CFG and
// liveness with ir.BuildCFG/BuildLiveness on fresh storage, which
// ir's TestResetMatchesReference pins to the allocate-per-call
// originals; only the workspace version recomputes into reused
// storage, so stale state there shows up as a body mismatch here.

func refOptimize(f *il.Function) {
	for i := 0; i < 10; i++ {
		c := refLocalOptimize(f)
		c = FoldBranches(f) || c
		c = refCleanup(f) || c
		c = refDCE(f) || c
		if !c {
			return
		}
	}
}

func refLocalOptimize(f *il.Function) bool {
	changed := false
	for _, b := range f.Blocks {
		changed = refOptimizeBlock(b) || changed
	}
	return changed
}

func refOptimizeBlock(b *il.Block) bool {
	changed := false
	constOf := make(map[il.Reg]int64)
	copyOf := make(map[il.Reg]il.Reg)

	kill := func(r il.Reg) {
		delete(constOf, r)
		delete(copyOf, r)
		for d, s := range copyOf {
			if s == r {
				delete(copyOf, d)
			}
		}
	}
	resolve := func(v il.Value) il.Value {
		if v.IsConst || v.Reg == 0 {
			return v
		}
		if c, ok := constOf[v.Reg]; ok {
			return il.ConstVal(c)
		}
		if s, ok := copyOf[v.Reg]; ok {
			return il.RegVal(s)
		}
		return v
	}

	for ii := range b.Instrs {
		in := &b.Instrs[ii]
		oldA, oldB := in.A, in.B
		in.A = resolve(in.A)
		in.B = resolve(in.B)
		for ai := range in.Args {
			na := resolve(in.Args[ai])
			if na != in.Args[ai] {
				in.Args[ai] = na
				changed = true
			}
		}
		if in.A != oldA || in.B != oldB {
			changed = true
		}
		if simplified := simplify(in); simplified {
			changed = true
		}
		if in.Dst != 0 {
			kill(in.Dst)
			switch in.Op {
			case il.Const:
				constOf[in.Dst] = in.A.Const
			case il.Copy:
				if in.A.IsConst {
					in.Op = il.Const
					constOf[in.Dst] = in.A.Const
					changed = true
				} else if in.A.Reg != in.Dst {
					copyOf[in.Dst] = in.A.Reg
				}
			}
		}
	}
	return changed
}

func refCleanup(f *il.Function) bool {
	changed := false
	for {
		c := refThreadJumps(f)
		c = refDropUnreachable(f) || c
		c = refMergeChains(f) || c
		if !c {
			return changed
		}
		changed = true
	}
}

func refThreadJumps(f *il.Function) bool {
	forward := make([]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		forward[i] = int32(i)
		if len(b.Instrs) == 1 && b.Instrs[0].Op == il.Jmp {
			forward[i] = b.T
		}
	}
	resolve := func(i int32) int32 {
		seen := 0
		for forward[i] != i && seen < len(f.Blocks) {
			i = forward[i]
			seen++
		}
		return i
	}
	changed := false
	for _, b := range f.Blocks {
		switch b.Term().Op {
		case il.Jmp:
			if nt := resolve(b.T); nt != b.T {
				b.T = nt
				changed = true
			}
		case il.Br:
			if nt := resolve(b.T); nt != b.T {
				b.T = nt
				changed = true
			}
			if nf := resolve(b.F); nf != b.F {
				b.F = nf
				changed = true
			}
		}
	}
	return changed
}

func refDropUnreachable(f *il.Function) bool {
	c := ir.BuildCFG(f)
	all := true
	for i := range f.Blocks {
		if !c.Reach[i] {
			all = false
			break
		}
	}
	if all {
		return false
	}
	remap := make([]int32, len(f.Blocks))
	var kept []*il.Block
	for i, b := range f.Blocks {
		if c.Reach[i] {
			remap[i] = int32(len(kept))
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	for _, b := range kept {
		switch b.Term().Op {
		case il.Jmp:
			b.T = remap[b.T]
		case il.Br:
			b.T = remap[b.T]
			b.F = remap[b.F]
		}
	}
	f.Blocks = kept
	return true
}

func refMergeChains(f *il.Function) bool {
	c := ir.BuildCFG(f)
	changed := false
	for i, b := range f.Blocks {
		for {
			if b.Term().Op != il.Jmp {
				break
			}
			t := b.T
			if t == int32(i) || t == 0 {
				break
			}
			if len(c.Preds[t]) != 1 {
				break
			}
			tb := f.Blocks[t]
			if tb == b {
				break
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], tb.Instrs...)
			b.T, b.F = tb.T, tb.F
			if tb.Freq > b.Freq {
				b.Freq = tb.Freq
			}
			tb.Instrs = []il.Instr{{Op: il.Jmp}}
			tb.T = int32(i)
			c.Preds[t] = nil
			changed = true
			c = ir.BuildCFG(f)
		}
	}
	if changed {
		refDropUnreachable(f)
	}
	return changed
}

func refDCE(f *il.Function) bool {
	any := false
	for {
		c := ir.BuildCFG(f)
		lv := ir.BuildLiveness(f, c)
		changed := false
		for bi, b := range f.Blocks {
			live := lv.Out[bi].Clone()
			keep := b.Instrs[:0]
			var kept []il.Instr
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				in := b.Instrs[ii]
				dead := in.Op == il.Nop ||
					(in.Dst != 0 && !live.Has(in.Dst) && isRemovable(&in))
				if dead {
					changed = true
					continue
				}
				if in.Dst != 0 {
					live.Remove(in.Dst)
				}
				visitUses(&in, func(r il.Reg) { live.Add(r) })
				kept = append(kept, in)
			}
			for i := len(kept) - 1; i >= 0; i-- {
				keep = append(keep, kept[i])
			}
			b.Instrs = keep
		}
		if !changed {
			return any
		}
		any = true
	}
}

func refUnrollLoops(f *il.Function, budget int) bool {
	if budget <= 0 {
		budget = 256
	}
	const maxTrips = 16
	changed := false
	for rounds := 0; rounds < 8; rounds++ {
		c := ir.BuildCFG(f)
		d := ir.BuildDominators(c)
		li := ir.BuildLoops(c, d)
		did := false
		for _, loop := range li.Loops {
			if len(loop.Blocks) != 2 {
				continue
			}
			h := loop.Header
			var l int32 = -1
			for _, b := range loop.Blocks {
				if b != h {
					l = b
				}
			}
			if l < 0 {
				continue
			}
			if tryUnroll(f, c, h, l, budget, maxTrips) {
				changed = true
				did = true
				refCleanup(f)
				break
			}
		}
		if !did {
			return changed
		}
	}
	return changed
}

// checkMatchesReference runs each entry point on one copy of f and
// its reference on another, in the order HLO runs them on a routine
// (Optimize, UnrollLoops, Optimize again after an unroll), plus
// Cleanup, DCE and LocalOptimize alone on the raw body. Results and
// bodies must be identical after every step.
func checkMatchesReference(prog *il.Program, f *il.Function) error {
	for _, p := range []struct {
		name     string
		got, ref func(*il.Function) bool
	}{
		{"Cleanup", Cleanup, refCleanup},
		{"DCE", DCE, refDCE},
		{"LocalOptimize", LocalOptimize, refLocalOptimize},
	} {
		got, want := f.Clone(), f.Clone()
		if g, w := p.got(got), p.ref(want); g != w {
			return fmt.Errorf("%s(%s) reported %v, reference %v", p.name, f.Name, g, w)
		}
		if err := sameBody(prog, p.name, got, want); err != nil {
			return err
		}
	}
	got, want := f.Clone(), f.Clone()
	Optimize(got)
	refOptimize(want)
	if err := sameBody(prog, "Optimize", got, want); err != nil {
		return err
	}
	g, w := UnrollLoops(got, 256), refUnrollLoops(want, 256)
	if g != w {
		return fmt.Errorf("UnrollLoops(%s) reported %v, reference %v", f.Name, g, w)
	}
	if err := sameBody(prog, "UnrollLoops", got, want); err != nil {
		return err
	}
	if g {
		Optimize(got)
		refOptimize(want)
		if err := sameBody(prog, "Optimize after UnrollLoops", got, want); err != nil {
			return err
		}
	}
	return nil
}

func sameBody(prog *il.Program, step string, got, want *il.Function) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	return fmt.Errorf("%s(%s) differs from the reference:\n--- got\n%s--- want\n%s",
		step, want.Name, got.Print(prog), want.Print(prog))
}

func checkGenerated(t *testing.T, seed int64, cfg iltest.Config) {
	t.Helper()
	p := iltest.Generate(seed, cfg)
	for _, pid := range p.Prog.FuncPIDs() {
		if err := checkMatchesReference(p.Prog, p.Funcs[pid]); err != nil {
			t.Fatalf("seed %d, config %+v: %v", seed, cfg, err)
		}
	}
}

func TestOptimizeMatchesReferenceRandomIL(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := iltest.Default()
		cfg.MaxBlocks = 3 + int(seed%4)*3
		cfg.MaxInstrs = 4 + int(seed%5)*3
		checkGenerated(t, seed, cfg)
	}
}

// FuzzOptimizeMatchesReference draws random programs over generator
// seeds and shapes.
func FuzzOptimizeMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(10), uint8(24))
	f.Add(int64(7), uint8(12), uint8(3), uint8(8))
	f.Add(int64(99), uint8(2), uint8(16), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, blocks, instrs, regs uint8) {
		cfg := iltest.Default()
		cfg.MaxBlocks = 1 + int(blocks%16)
		cfg.MaxInstrs = 1 + int(instrs%16)
		cfg.MaxRegs = int(regs % 128)
		checkGenerated(t, seed, cfg)
	})
}

// chainFunc returns a function that Optimize needs k+2 rounds for:
// block i tests a value computed in block i-1, so each round's
// constant folding is unlocked by the block merge of the round
// before. Block 0 has room for every merge, so the body's own growth
// allocates nothing.
func chainFunc(k int) *il.Function {
	f := &il.Function{Name: "chain", Ret: il.I64, NRegs: il.Reg(2*k + 1)}
	for i := 0; i < k; i++ {
		r, cond := il.Reg(2*i+1), il.Reg(2*i+2)
		var instrs []il.Instr
		if i == 0 {
			instrs = make([]il.Instr, 0, 4*k+4)
			instrs = append(instrs, il.Instr{Op: il.Const, Dst: r, A: il.ConstVal(1)})
		} else {
			instrs = append(instrs, il.Instr{Op: il.Add, Dst: r, A: il.RegVal(r - 2), B: il.ConstVal(1)})
		}
		instrs = append(instrs,
			il.Instr{Op: il.Lt, Dst: cond, A: il.RegVal(r), B: il.ConstVal(1000)},
			il.Instr{Op: il.Br, A: il.RegVal(cond)})
		f.Blocks = append(f.Blocks, &il.Block{Instrs: instrs, T: int32(i + 1), F: int32(k + 1)})
	}
	f.Blocks = append(f.Blocks,
		&il.Block{Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(il.Reg(2*k - 1))}}, T: -1, F: -1},
		&il.Block{Instrs: []il.Instr{{Op: il.Ret, A: il.ConstVal(-1)}}, T: -1, F: -1})
	return f
}

// Once a workspace is warm, Optimize allocates a bounded number of
// objects however many fixed-point rounds it runs: every round
// recomputes CFG and liveness into the same storage. The workspace
// is held directly rather than drawn from the pool, which the race
// detector deliberately makes lossy.
func TestOptimizeAllocsIndependentOfRounds(t *testing.T) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	allocs := func(k int) (float64, int) {
		const runs = 50
		bodies := make([]*il.Function, runs+1)
		for i := range bodies {
			bodies[i] = chainFunc(k)
		}
		rounds := ws.optimize(chainFunc(k))
		next := 0
		a := testing.AllocsPerRun(runs, func() {
			ws.optimize(bodies[next])
			next++
		})
		if f := bodies[0]; len(f.Blocks) != 1 || !reflect.DeepEqual(*f.Blocks[0].Term(), il.Instr{Op: il.Ret, A: il.ConstVal(int64(k))}) {
			t.Fatalf("k=%d: chain did not fold to one block returning %d: %+v", k, k, f.Blocks[0].Instrs)
		}
		return a, rounds
	}
	few, fewRounds := allocs(2)
	many, manyRounds := allocs(8)
	if fewRounds >= manyRounds {
		t.Fatalf("chain bodies ran %d and %d rounds; want the second to need more", fewRounds, manyRounds)
	}
	t.Logf("Optimize allocations: %v over %d rounds, %v over %d rounds", few, fewRounds, many, manyRounds)
	if few > 1 || many != few {
		t.Fatalf("Optimize allocations: %v over %d rounds, %v over %d rounds; want the same bound of at most 1",
			few, fewRounds, many, manyRounds)
	}
}
