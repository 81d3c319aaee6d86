package xform

import (
	"slices"

	"cmo/internal/il"
)

// isRemovable reports whether an instruction may be deleted when its
// destination is dead. Calls, stores, probes, and terminators are
// never removable; Div/Rem are removable only when the divisor is a
// non-zero constant (deleting a potential divide-by-zero trap would
// change behavior); dead loads are removable (see package comment).
func isRemovable(in *il.Instr) bool {
	switch in.Op {
	case il.Const, il.Copy, il.Add, il.Sub, il.Mul, il.Neg, il.Not,
		il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge,
		il.LoadG, il.LoadX, il.Nop:
		return true
	case il.Div, il.Rem:
		return in.B.IsConst && in.B.Const != 0
	}
	return false
}

// DCE removes instructions whose results are never used, iterating to
// a fixed point. Nop instructions are removed unconditionally. It
// reports whether anything was deleted.
func DCE(f *il.Function) bool {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return ws.dce(f)
}

func (ws *workspace) dce(f *il.Function) bool {
	any := false
	for {
		ws.cfg.Reset(f)
		ws.live.Reset(f, &ws.cfg)
		changed := false
		for bi, b := range f.Blocks {
			// Walk backward, marking dead removable defs, then
			// compact the survivors forward in place.
			live := append(ws.liveSet[:0], ws.live.Out[bi]...)
			ws.liveSet = live
			dead := slices.Grow(ws.dead[:0], len(b.Instrs))[:len(b.Instrs)]
			ws.dead = dead
			dropped := false
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				in := &b.Instrs[ii]
				dead[ii] = in.Op == il.Nop ||
					(in.Dst != 0 && !live.Has(in.Dst) && isRemovable(in))
				if dead[ii] {
					dropped = true
					continue
				}
				if in.Dst != 0 {
					live.Remove(in.Dst)
				}
				visitUses(in, func(r il.Reg) { live.Add(r) })
			}
			if !dropped {
				continue
			}
			changed = true
			keep := b.Instrs[:0]
			for ii := range b.Instrs {
				if !dead[ii] {
					keep = append(keep, b.Instrs[ii])
				}
			}
			b.Instrs = keep
		}
		if !changed {
			return any
		}
		any = true
	}
}

func visitUses(in *il.Instr, visit func(il.Reg)) {
	use := func(v il.Value) {
		if !v.IsConst && v.Reg != 0 {
			visit(v.Reg)
		}
	}
	use(in.A)
	use(in.B)
	for _, a := range in.Args {
		use(a)
	}
}
