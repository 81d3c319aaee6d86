package xform

import (
	"slices"
	"sync"

	"cmo/internal/il"
	"cmo/internal/ir"
)

// workspace is the reusable scratch storage of the function-local
// pipeline: the CFG and liveness it recomputes every round (via
// ir's Reset) and the per-pass buffers. One workspace is threaded
// through a whole Optimize call; workspaces are pooled, so once a
// pool entry has grown to the largest body it has seen, fixed-point
// rounds allocate nothing.
type workspace struct {
	cfg  ir.CFG
	live ir.Liveness
	// dce: the running live set and per-instruction dead marks.
	liveSet ir.RegSet
	dead    []bool
	// threadJumps and dropUnreachable block maps.
	forward, remap []int32
	// optimizeBlock's per-block facts, cleared for each block.
	constOf map[il.Reg]int64
	copyOf  map[il.Reg]il.Reg
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{constOf: make(map[il.Reg]int64), copyOf: make(map[il.Reg]il.Reg)}
}}

func getWorkspace() *workspace   { return workspaces.Get().(*workspace) }
func putWorkspace(ws *workspace) { workspaces.Put(ws) }

// Cleanup normalizes a function's CFG: it deletes unreachable blocks,
// threads jumps through empty forwarding blocks, and merges blocks
// with their unique successor when that successor has a unique
// predecessor. It reports whether anything changed.
func Cleanup(f *il.Function) bool {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return ws.cleanup(f)
}

func (ws *workspace) cleanup(f *il.Function) bool {
	changed := false
	for {
		c := ws.threadJumps(f)
		c = ws.dropUnreachable(f) || c
		c = ws.mergeChains(f) || c
		if !c {
			return changed
		}
		changed = true
	}
}

// threadJumps redirects edges that point at a block containing only a
// Jmp to that block's target.
func (ws *workspace) threadJumps(f *il.Function) bool {
	// forward[i] = final destination when block i is a pure jump.
	ws.forward = slices.Grow(ws.forward[:0], len(f.Blocks))[:len(f.Blocks)]
	forward := ws.forward
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

// dropUnreachable removes blocks not reachable from the entry and
// renumbers branch targets, compacting f.Blocks in place.
func (ws *workspace) dropUnreachable(f *il.Function) bool {
	c := &ws.cfg
	c.Reset(f)
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
	ws.remap = slices.Grow(ws.remap[:0], len(f.Blocks))[:len(f.Blocks)]
	remap := ws.remap
	kept := f.Blocks[:0]
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
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
	return true
}

// mergeChains merges a block ending in Jmp with its target when the
// target's only predecessor is that block (and it is not the entry).
// The CFG is recomputed after every merge, into the same storage.
func (ws *workspace) mergeChains(f *il.Function) bool {
	c := &ws.cfg
	c.Reset(f)
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
			// Splice: drop our Jmp, append target's instructions.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], tb.Instrs...)
			b.T, b.F = tb.T, tb.F
			if tb.Freq > b.Freq {
				b.Freq = tb.Freq
			}
			// Leave the target as an unreachable husk (a Jmp to
			// itself would be wrong; give it a Ret-like shape that
			// dropUnreachable will delete).
			// Its instructions now live in b, so its own array is
			// free to hold the husk.
			tb.Instrs = append(tb.Instrs[:0], il.Instr{Op: il.Jmp})
			tb.T = int32(i)
			changed = true
			// b's new terminator may be another Jmp; keep merging.
			c.Reset(f)
		}
	}
	if changed {
		ws.dropUnreachable(f)
	}
	return changed
}

// Optimize is the standard function-local pipeline: local folding,
// branch folding, CFG cleanup, and DCE, iterated to a fixed point.
// This is what +O2 runs per routine and what HLO re-runs after
// inlining (the paper's "minimum amount of analysis and
// transformation" for unselected routines skips it).
func Optimize(f *il.Function) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.optimize(f)
}

// optimize runs the pipeline and returns the number of rounds it ran.
func (ws *workspace) optimize(f *il.Function) (rounds int) {
	for rounds < 10 {
		rounds++
		c := ws.localOptimize(f)
		c = FoldBranches(f) || c
		c = ws.cleanup(f) || c
		c = ws.dce(f) || c
		if !c {
			break
		}
	}
	return rounds
}
