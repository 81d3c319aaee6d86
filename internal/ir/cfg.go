// Package ir computes derived analyses over IL function bodies:
// control-flow structure, dominators, natural loops, and liveness.
//
// Everything in this package is "derived data" in the paper's NAIM
// taxonomy (Figure 3): it is recomputed from scratch on demand and is
// never kept incrementally up to date or persisted in the relocatable
// form. The NAIM compactor simply drops these structures, which is
// where most of the 2/3 space saving of compaction comes from
// (paper section 4.2.2).
//
// Recomputing from scratch does not mean allocating from scratch.
// (*CFG).Reset and (*Liveness).Reset rebuild the facts for a new body
// into the storage of earlier calls, so a pass that recomputes them
// every round (internal/xform's fixed-point loop) allocates nothing
// once its buffers have grown to the largest body it has seen. The
// facts themselves are still a pure function of the body: nothing is
// updated incrementally, and a Reset result equals a fresh Build.
// BuildCFG and BuildLiveness are Reset on zero storage.
package ir

import "cmo/internal/il"

// CFG is the successor/predecessor view of a function body.
type CFG struct {
	Succs [][]int32
	Preds [][]int32
	// RPO is a reverse postorder of the blocks reachable from block 0.
	RPO []int32
	// Reach[i] reports whether block i is reachable from entry.
	Reach []bool

	// Storage reused by Reset. Succs and Preds are windows into
	// succBuf and predBuf; predOff is the counting-sort offset table.
	succBuf, predBuf, predOff []int32
	state                     []uint8
	stack                     []dfsFrame
}

type dfsFrame struct {
	b  int32
	si int
}

// BuildCFG computes the control-flow graph of f.
func BuildCFG(f *il.Function) *CFG {
	c := new(CFG)
	c.Reset(f)
	return c
}

// Reset recomputes c from scratch for f, reusing the storage of
// earlier calls. Slices previously read from c (Succs[i], Preds[i],
// RPO, Reach) are overwritten.
func (c *CFG) Reset(f *il.Function) {
	n := len(f.Blocks)
	c.Succs = resize(c.Succs, n)
	c.Preds = resize(c.Preds, n)
	c.Reach = resize(c.Reach, n)
	clear(c.Reach)

	// A block has at most two successors; sizing succBuf up front
	// keeps every Succs window valid while it fills.
	succ := resize(c.succBuf, 2*n)[:0]
	for i, b := range f.Blocks {
		start := len(succ)
		switch b.Term().Op {
		case il.Jmp:
			succ = append(succ, b.T)
		case il.Br:
			succ = append(succ, b.T)
			if b.T != b.F {
				succ = append(succ, b.F)
			}
		case il.Ret:
			// no successors
		}
		c.Succs[i] = window(succ, start)
	}
	c.succBuf = succ

	// DFS postorder from entry, written into RPO and then reversed.
	state := resize(c.state, n) // 0 unvisited, 1 on stack, 2 done
	clear(state)
	post := c.RPO[:0]
	stack := append(c.stack[:0], dfsFrame{0, 0})
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
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		state[top.b] = 2
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for l, r := 0, len(post)-1; l < r; l, r = l+1, r-1 {
		post[l], post[r] = post[r], post[l]
	}
	c.RPO, c.state, c.stack = post, state, stack

	// Predecessors of reachable blocks by counting sort: count each
	// block's in-edges, turn the counts into offsets, then place
	// sources in ascending block order so every Preds list is sorted.
	off := resize(c.predOff, n+1)
	clear(off)
	edges := 0
	for i := range f.Blocks {
		if !c.Reach[i] {
			continue
		}
		for _, s := range c.Succs[i] {
			off[s+1]++
			edges++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	pred := resize(c.predBuf, edges)
	for i := range f.Blocks {
		if !c.Reach[i] {
			continue
		}
		for _, s := range c.Succs[i] {
			pred[off[s]] = int32(i)
			off[s]++
		}
	}
	// off[s] now ends s's run, which starts where s-1's ends.
	start := int32(0)
	for s := 0; s < n; s++ {
		c.Preds[s] = window(pred[:off[s]], int(start))
		start = off[s]
	}
	c.predBuf, c.predOff = pred, off
}

// window returns buf[start:] capped at its length, or nil when it is
// empty, so appending to one block's list can never write into the
// next block's.
func window(buf []int32, start int) []int32 {
	if start == len(buf) {
		return nil
	}
	return buf[start:len(buf):len(buf)]
}

// resize returns s with length n, reusing its backing array when it
// is large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Dominators holds the immediate-dominator tree computed by the
// Cooper–Harvey–Kennedy algorithm.
type Dominators struct {
	// IDom[b] is the immediate dominator of block b, or -1 for the
	// entry block and unreachable blocks.
	IDom []int32
	cfg  *CFG
}

// BuildDominators computes the dominator tree for a CFG.
func BuildDominators(c *CFG) *Dominators {
	n := len(c.Succs)
	d := &Dominators{IDom: make([]int32, n), cfg: c}
	rpoIndex := make([]int32, n)
	for i := range d.IDom {
		d.IDom[i] = -1
		rpoIndex[i] = -1
	}
	for i, b := range c.RPO {
		rpoIndex[b] = int32(i)
	}
	if len(c.RPO) == 0 {
		return d
	}
	entry := c.RPO[0]
	d.IDom[entry] = entry
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = d.IDom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = d.IDom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIDom int32 = -1
			for _, p := range c.Preds[b] {
				if d.IDom[p] == -1 {
					continue
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != -1 && d.IDom[b] != newIDom {
				d.IDom[b] = newIDom
				changed = true
			}
		}
	}
	d.IDom[entry] = -1
	return d
}

// Dominates reports whether block a dominates block b.
func (d *Dominators) Dominates(a, b int32) bool {
	for {
		if a == b {
			return true
		}
		b = d.IDom[b]
		if b == -1 {
			return false
		}
	}
}

// Loop is a natural loop: a back edge target (header) plus its body.
type Loop struct {
	Header int32
	Blocks []int32 // includes the header; sorted ascending
	Depth  int     // 1 for outermost loops
}

// LoopInfo is the set of natural loops and per-block nesting depth.
type LoopInfo struct {
	Loops []Loop
	// Depth[b] is the loop nesting depth of block b (0 = not in a loop).
	Depth []int
}

// BuildLoops finds all natural loops via back edges (edges b->h where
// h dominates b) and computes per-block nesting depth. Loops sharing
// a header are merged, matching the usual definition.
func BuildLoops(c *CFG, d *Dominators) *LoopInfo {
	n := len(c.Succs)
	li := &LoopInfo{Depth: make([]int, n)}
	bodyByHeader := make(map[int32]map[int32]bool)
	var headers []int32
	for b := int32(0); b < int32(n); b++ {
		if !c.Reach[b] {
			continue
		}
		for _, h := range c.Succs[b] {
			if !d.Dominates(h, b) {
				continue
			}
			body, ok := bodyByHeader[h]
			if !ok {
				body = map[int32]bool{h: true}
				bodyByHeader[h] = body
				headers = append(headers, h)
			}
			// Walk predecessors backward from the latch.
			stack := []int32{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range c.Preds[x] {
					stack = append(stack, p)
				}
			}
		}
	}
	// headers were appended in ascending block order scan; keep that
	// order deterministic.
	for _, h := range headers {
		body := bodyByHeader[h]
		loop := Loop{Header: h}
		for b := int32(0); b < int32(n); b++ {
			if body[b] {
				loop.Blocks = append(loop.Blocks, b)
				li.Depth[b]++
			}
		}
		li.Loops = append(li.Loops, loop)
	}
	for i := range li.Loops {
		li.Loops[i].Depth = li.Depth[li.Loops[i].Header]
	}
	return li
}
