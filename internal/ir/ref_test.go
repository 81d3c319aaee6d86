package ir

import (
	"fmt"
	"reflect"
	"testing"

	"cmo/internal/il"
	"cmo/internal/iltest"
)

// refBuildCFG and refBuildLiveness are the allocate-per-call
// implementations that (*CFG).Reset and (*Liveness).Reset replaced,
// kept verbatim as the reference the reusing versions must match.

func refBuildCFG(f *il.Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		Succs: make([][]int32, n),
		Preds: make([][]int32, n),
		Reach: make([]bool, n),
	}
	for i, b := range f.Blocks {
		switch b.Term().Op {
		case il.Jmp:
			c.Succs[i] = []int32{b.T}
		case il.Br:
			if b.T == b.F {
				c.Succs[i] = []int32{b.T}
			} else {
				c.Succs[i] = []int32{b.T, b.F}
			}
		case il.Ret:
			// no successors
		}
	}
	// DFS postorder from entry.
	var post []int32
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b  int32
		si int
	}
	stack := []frame{{0, 0}}
	state[0] = 1
	c.Reach[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.si < len(c.Succs[top.b]) {
			s := c.Succs[top.b][top.si]
			top.si++
			if state[s] == 0 {
				state[s] = 1
				c.Reach[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[top.b] = 2
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int32, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
	for i := range f.Blocks {
		if !c.Reach[i] {
			continue
		}
		for _, s := range c.Succs[i] {
			c.Preds[s] = append(c.Preds[s], int32(i))
		}
	}
	return c
}

func refBuildLiveness(f *il.Function, c *CFG) *Liveness {
	n := len(f.Blocks)
	lv := &Liveness{
		In:       make([]RegSet, n),
		Out:      make([]RegSet, n),
		UseCount: make([]int64, f.NRegs),
	}
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	for i, b := range f.Blocks {
		lv.In[i] = NewRegSet(f.NRegs)
		lv.Out[i] = NewRegSet(f.NRegs)
		use[i] = NewRegSet(f.NRegs)
		def[i] = NewRegSet(f.NRegs)
		w := int64(1)
		if b.Freq > 0 {
			w = b.Freq
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			instrUses(in, func(r il.Reg) {
				lv.UseCount[r] += w
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			})
			if d := instrDef(in); d != 0 {
				def[i].Add(d)
			}
		}
	}
	order := make([]int32, len(c.RPO))
	copy(order, c.RPO)
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			out := lv.Out[b]
			for _, s := range c.Succs[b] {
				if out.UnionInto(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			newIn := out.Clone()
			for r := il.Reg(1); r < f.NRegs; r++ {
				if def[b].Has(r) {
					newIn.Remove(r)
				}
			}
			newIn.UnionInto(use[b])
			if lv.In[b].UnionInto(newIn) {
				changed = true
			}
		}
	}
	return lv
}

// sameCFG reports the first exported field where got and want differ.
func sameCFG(got, want *CFG) error {
	for _, fld := range []struct {
		name      string
		got, want any
	}{
		{"Succs", got.Succs, want.Succs},
		{"Preds", got.Preds, want.Preds},
		{"RPO", got.RPO, want.RPO},
		{"Reach", got.Reach, want.Reach},
	} {
		if !reflect.DeepEqual(fld.got, fld.want) {
			return fmt.Errorf("%s = %v, want %v", fld.name, fld.got, fld.want)
		}
	}
	return nil
}

func sameLiveness(got, want *Liveness) error {
	for _, fld := range []struct {
		name      string
		got, want any
	}{
		{"In", got.In, want.In},
		{"Out", got.Out, want.Out},
		{"UseCount", got.UseCount, want.UseCount},
	} {
		if !reflect.DeepEqual(fld.got, fld.want) {
			return fmt.Errorf("%s = %v, want %v", fld.name, fld.got, fld.want)
		}
	}
	return nil
}

// referenceBodies returns random IL bodies of widely varying block
// and register counts (so reused storage both grows and shrinks),
// with unreachable blocks and loops, plus the lowered loop nest.
func referenceBodies(t *testing.T) []*il.Function {
	_, loop := lowerOne(t, loopSrc, "f")
	fns := []*il.Function{loop}
	for seed := int64(0); seed < 60; seed++ {
		cfg := iltest.Default()
		cfg.MaxBlocks = 2 + int(seed%5)*4
		cfg.MaxRegs = 8 + int(seed%7)*20
		p := iltest.Generate(seed, cfg)
		for _, pid := range p.Prog.FuncPIDs() {
			fns = append(fns, p.Funcs[pid])
		}
	}
	return fns
}

// One CFG and one Liveness reset over many bodies in turn must equal
// fresh reference computations on each: no stale reachability,
// successor, predecessor or liveness bit survives from an earlier
// body, and predecessors stay in ascending block order.
func TestResetMatchesReference(t *testing.T) {
	var c CFG
	var lv Liveness
	for round := 0; round < 2; round++ {
		for i, f := range referenceBodies(t) {
			c.Reset(f)
			want := refBuildCFG(f)
			if err := sameCFG(&c, want); err != nil {
				t.Fatalf("body %d (%s, %d blocks): CFG.Reset: %v", i, f.Name, len(f.Blocks), err)
			}
			lv.Reset(f, &c)
			if err := sameLiveness(&lv, refBuildLiveness(f, want)); err != nil {
				t.Fatalf("body %d (%s, %d blocks): Liveness.Reset: %v", i, f.Name, len(f.Blocks), err)
			}
			if err := sameCFG(BuildCFG(f), want); err != nil {
				t.Fatalf("body %d: BuildCFG: %v", i, err)
			}
		}
	}
}

// Once its storage has grown to a body, recomputing that body's CFG
// and liveness allocates nothing.
func TestResetAllocatesNothingWarm(t *testing.T) {
	fns := referenceBodies(t)
	var c CFG
	var lv Liveness
	for _, f := range fns {
		c.Reset(f)
		lv.Reset(f, &c)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, f := range fns {
			c.Reset(f)
			lv.Reset(f, &c)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm CFG.Reset + Liveness.Reset over %d bodies: %v allocations, want 0", len(fns), allocs)
	}
}
