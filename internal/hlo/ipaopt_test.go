package hlo

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/ipa"
)

// ipaPass builds the minimal pass state the ipa-gated transform
// bodies need: program, options, and a summary table.
func ipaPass(prog *il.Program, sums ipa.Summaries, volatiles map[il.PID]bool) *pass {
	return &pass{
		prog:      prog,
		opts:      Options{Volatile: volatiles},
		res:       &Result{},
		size:      map[il.PID]int{},
		summaries: sums,
	}
}

// ipaProg hand-assembles a program with two globals and three callees
// whose summaries span the purity lattice: a const function, a pure
// reader of g, and a writer of g.
type ipaProg struct {
	prog                *il.Program
	g, h                il.PID
	constFn, pureFn, wg il.PID
	sums                ipa.Summaries
}

func newIPAProg() *ipaProg {
	p := il.NewProgram()
	m := p.AddModule("m")
	def := func(name string, kind il.SymKind) il.PID {
		pid, _ := p.Intern(name, kind)
		s := p.Sym(pid)
		s.Module = m.Index
		if kind == il.SymFunc {
			s.Sig = il.Signature{Ret: il.I64, Params: []il.Type{il.I64}}
		} else {
			s.Type = il.I64
		}
		m.Defs = append(m.Defs, pid)
		return pid
	}
	ip := &ipaProg{prog: p}
	ip.g = def("g", il.SymGlobal)
	ip.h = def("h", il.SymGlobal)
	ip.constFn = def("cf", il.SymFunc)
	ip.pureFn = def("pf", il.SymFunc)
	ip.wg = def("wg", il.SymFunc)
	ip.sums = ipa.Summaries{
		ip.constFn: {Purity: ipa.Const},
		ip.pureFn:  {Ref: map[il.PID]bool{ip.g: true}, Purity: ipa.Pure},
		ip.wg:      {Mod: map[il.PID]bool{ip.g: true}, Purity: ipa.Neither},
	}
	return ip
}

func oneBlock(instrs ...il.Instr) *il.Function {
	return &il.Function{Name: "t", NRegs: 16, Ret: il.I64,
		Blocks: []*il.Block{{Instrs: instrs, T: -1, F: -1}}}
}

func TestForwardGlobalsAcrossNonModCall(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(5)},
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.constFn, Args: []il.Value{il.ConstVal(0)}},
		il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.forwardGlobals(f); n != 1 {
		t.Fatalf("forwarded %d loads, want 1", n)
	}
	in := f.Blocks[0].Instrs[2]
	if in.Op != il.Const || !in.A.IsConst || in.A.Const != 5 {
		t.Errorf("load not forwarded to Const 5: %+v", in)
	}
}

func TestForwardGlobalsKilledByModCall(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(5)},
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.wg, Args: []il.Value{il.ConstVal(0)}},
		il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.forwardGlobals(f); n != 0 {
		t.Fatalf("forwarded %d loads across a MOD call, want 0", n)
	}
}

func TestForwardGlobalsUnsummarizedCalleeIsTop(t *testing.T) {
	ip := newIPAProg()
	unknown, _ := ip.prog.Intern("mystery", il.SymFunc)
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(5)},
		il.Instr{Op: il.Call, Dst: 1, Sym: unknown, Args: []il.Value{il.ConstVal(0)}},
		il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.forwardGlobals(f); n != 0 {
		t.Fatalf("forwarded %d loads across an unsummarized call, want 0", n)
	}
}

func TestForwardGlobalsVolatileNeverTracked(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(5)},
		il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, map[il.PID]bool{ip.g: true})
	if n := p.forwardGlobals(f); n != 0 {
		t.Fatalf("forwarded %d volatile loads, want 0", n)
	}
}

func TestForwardGlobalsRegisterRedefinition(t *testing.T) {
	// The forwarded value lives in a register that is then redefined:
	// the entry must die with it.
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
		il.Instr{Op: il.Const, Dst: 2, A: il.ConstVal(9)}, // clobbers r2
		il.Instr{Op: il.LoadG, Dst: 3, Sym: ip.g},         // must NOT copy r2
		il.Instr{Op: il.Ret, A: il.RegVal(3)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.forwardGlobals(f); n != 0 {
		t.Fatalf("forwarded %d loads from a clobbered register, want 0", n)
	}
}

func TestDeadGlobalStoresAcrossNonRefCall(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(1)},
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.constFn, Args: []il.Value{il.ConstVal(0)}},
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(2)},
		il.Instr{Op: il.Ret, A: il.ConstVal(0)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.deadGlobalStores(f); n != 1 {
		t.Fatalf("killed %d stores, want 1", n)
	}
	if f.Blocks[0].Instrs[0].Op != il.Nop {
		t.Errorf("overwritten store not Nopped: %+v", f.Blocks[0].Instrs[0])
	}
	if f.Blocks[0].Instrs[2].Op != il.StoreG {
		t.Errorf("surviving store clobbered: %+v", f.Blocks[0].Instrs[2])
	}
}

func TestDeadGlobalStoresKeptAcrossRefCall(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(1)},
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.pureFn, Args: []il.Value{il.ConstVal(0)}},
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(2)},
		il.Instr{Op: il.Ret, A: il.ConstVal(0)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.deadGlobalStores(f); n != 0 {
		t.Fatalf("killed %d stores the pure callee reads, want 0", n)
	}
}

func TestDeadGlobalStoresLastStoreSurvivesBlock(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(1)},
		il.Instr{Op: il.Ret, A: il.ConstVal(0)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.deadGlobalStores(f); n != 0 {
		t.Fatalf("killed %d end-of-block stores, want 0 (successors may read)", n)
	}
}

func TestPureCSEConstCall(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.constFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.StoreG, Sym: ip.h, A: il.RegVal(1)}, // const entries survive stores
		il.Instr{Op: il.Call, Dst: 2, Sym: ip.constFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.cseConstPureCalls(f); n != 1 {
		t.Fatalf("reused %d const calls, want 1", n)
	}
	in := f.Blocks[0].Instrs[2]
	if in.Op != il.Copy || in.A.IsConst || in.A.Reg != 1 {
		t.Errorf("duplicate const call not rewritten to Copy r1: %+v", in)
	}
}

func TestPureCSEPureCallInvalidatedByStore(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.pureFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(0)}, // changes what pf reads
		il.Instr{Op: il.Call, Dst: 2, Sym: ip.pureFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.cseConstPureCalls(f); n != 0 {
		t.Fatalf("reused %d pure calls across a store, want 0", n)
	}
}

func TestPureCSEPureCallReusedWhenNothingWrites(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.pureFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.Call, Dst: 2, Sym: ip.constFn, Args: []il.Value{il.RegVal(1)}}, // const call: no writes
		il.Instr{Op: il.Call, Dst: 3, Sym: ip.pureFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.Ret, A: il.RegVal(3)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.cseConstPureCalls(f); n != 1 {
		t.Fatalf("reused %d pure calls, want 1", n)
	}
}

func TestPureCSEDifferentArgsNotReused(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.constFn, Args: []il.Value{il.ConstVal(7)}},
		il.Instr{Op: il.Call, Dst: 2, Sym: ip.constFn, Args: []il.Value{il.ConstVal(8)}},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.cseConstPureCalls(f); n != 0 {
		t.Fatalf("reused %d calls with distinct args, want 0", n)
	}
}

func TestPureCSEArgRedefinitionInvalidates(t *testing.T) {
	ip := newIPAProg()
	f := oneBlock(
		il.Instr{Op: il.Const, Dst: 4, A: il.ConstVal(7)},
		il.Instr{Op: il.Call, Dst: 1, Sym: ip.constFn, Args: []il.Value{il.RegVal(4)}},
		il.Instr{Op: il.Const, Dst: 4, A: il.ConstVal(8)}, // r4 now holds a new value
		il.Instr{Op: il.Call, Dst: 2, Sym: ip.constFn, Args: []il.Value{il.RegVal(4)}},
		il.Instr{Op: il.Ret, A: il.RegVal(2)},
	)
	p := ipaPass(ip.prog, ip.sums, nil)
	if n := p.cseConstPureCalls(f); n != 0 {
		t.Fatalf("reused %d calls whose register operand changed, want 0", n)
	}
}

// End-to-end: a MinC program whose only cross-call redundancy needs
// the summaries. The optimize helper asserts the interpreted result
// is unchanged; the stats prove the ipa transforms fired.
func TestIPATransformsEndToEnd(t *testing.T) {
	prog, fns := build(t, `
module m;
var acc int = 0;
var bias int = 3;

func pureScale(x int) int {
	return x * bias;
}

func main() int {
	acc = 10;
	var a int = pureScale(2);
	var b int = acc;
	acc = 1;
	acc = a + b + pureScale(2);
	return acc;
}
`)
	sums := ipa.Analyze(prog, MapSource(fns), ipa.Options{}).Summaries
	_, res := optimize(t, prog, fns, Options{Summaries: sums})
	s := res.Stats
	if s.GLoadsForwarded+s.GStoresKilled+s.PureCSEs == 0 {
		t.Errorf("no ipa transform fired: %+v", s)
	}
}

// FuzzCalleeTamper drives the replay-invalidation property: whenever
// a tampered callee body changes the callee's summary fingerprint,
// the caller's ipaFactsFP — the string inside its replay key — must
// change too, so a warm rebuild cannot reuse transforms computed
// against the old side effects.
func FuzzCalleeTamper(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	f.Add(uint8(2), uint8(0), int64(3))
	f.Add(uint8(3), uint8(1), int64(-4))
	f.Fuzz(func(t *testing.T, opSel, gSel uint8, val int64) {
		ip := newIPAProg()
		callee := ip.pureFn
		calleeBody := oneBlock(
			il.Instr{Op: il.LoadG, Dst: 1, Sym: ip.g},
			il.Instr{Op: il.Ret, A: il.RegVal(1)},
		)
		calleeBody.Name, calleeBody.PID, calleeBody.NParams = "pf", callee, 1
		caller := oneBlock(
			il.Instr{Op: il.StoreG, Sym: ip.g, A: il.ConstVal(5)},
			il.Instr{Op: il.Call, Dst: 1, Sym: callee, Args: []il.Value{il.ConstVal(0)}},
			il.Instr{Op: il.LoadG, Dst: 2, Sym: ip.g},
			il.Instr{Op: il.Ret, A: il.RegVal(2)},
		)
		fns := map[il.PID]*il.Function{callee: calleeBody}
		summarize := func() ipa.Summaries {
			return ipa.Analyze(ip.prog, MapSource(fns), ipa.Options{}).Summaries
		}
		before := summarize()
		fpBefore := ipaPass(ip.prog, before, nil).ipaFactsFP(caller)

		// Tamper: insert one effectful instruction into the callee.
		g := ip.g
		if gSel%2 == 1 {
			g = ip.h
		}
		var tamper il.Instr
		switch opSel % 4 {
		case 0:
			tamper = il.Instr{Op: il.StoreG, Sym: g, A: il.ConstVal(val)}
		case 1:
			tamper = il.Instr{Op: il.LoadG, Dst: 2, Sym: g}
		case 2:
			tamper = il.Instr{Op: il.Probe, Sym: 0}
		case 3:
			// Effect-free tampering: the summary must NOT change, and
			// the facts fingerprint must not either (the body hash key
			// component covers body edits).
			tamper = il.Instr{Op: il.Const, Dst: 3, A: il.ConstVal(val)}
		}
		instrs := calleeBody.Blocks[0].Instrs
		calleeBody.Blocks[0].Instrs = append([]il.Instr{tamper}, instrs...)

		after := summarize()
		fpAfter := ipaPass(ip.prog, after, nil).ipaFactsFP(caller)

		sumChanged := before[callee].Fingerprint(ip.prog) != after[callee].Fingerprint(ip.prog)
		fpChanged := fpBefore != fpAfter
		if sumChanged != fpChanged {
			t.Fatalf("callee summary changed=%v but caller facts changed=%v\nbefore: %q\nafter:  %q",
				sumChanged, fpChanged, fpBefore, fpAfter)
		}
		if opSel%4 == 0 && !fpChanged {
			t.Fatalf("a new store to %s left the caller's replay facts unchanged: %q", ip.prog.Sym(g).Name, fpBefore)
		}
	})
}

// refClosureFP is the inline replay key the Merkle closure digests
// replaced, kept as the property test's reference: the transitive
// callee closure of root rendered as a string, members sorted by name,
// each contributing its name, pre-inline hash, and the
// scope/selected/defined bits.
func refClosureFP(p *pass, root il.PID, h0 map[il.PID]string) string {
	seen := map[il.PID]bool{root: true}
	work := []il.PID{root}
	var members []il.PID
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		members = append(members, v)
		for _, w := range p.callees[v] {
			if !seen[w] {
				seen[w] = true
				work = append(work, w)
			}
		}
	}
	sort.Slice(members, func(i, j int) bool {
		return p.prog.Sym(members[i]).Name < p.prog.Sym(members[j]).Name
	})
	var sb strings.Builder
	sb.WriteString(p.prog.Sym(root).Name)
	sb.WriteByte('\n')
	for _, m := range members {
		sym := p.prog.Sym(m)
		fmt.Fprintf(&sb, "%s\x00%s\x00%c%c%c\n", sym.Name, h0[m],
			b2c(p.scope[m]), b2c(p.selected[m]), b2c(sym.Module >= 0))
	}
	return sb.String()
}

// keyGraph is a call graph over named functions, independent of PID
// numbering: the raw material of one inline-key computation.
type keyGraph struct {
	edges                    [][]int // callee indexes per function
	h0                       []string
	scope, selected, defined []bool
}

// randomKeyGraph draws a call graph that always contains a
// self-recursive function, a mutually recursive pair, a diamond, an
// out-of-scope callee and an undefined callee, plus random edges.
func randomKeyGraph(r *rand.Rand) *keyGraph {
	n := 10 + r.Intn(8)
	g := &keyGraph{
		edges:    make([][]int, n),
		h0:       make([]string, n),
		scope:    make([]bool, n),
		selected: make([]bool, n),
		defined:  make([]bool, n),
	}
	for i := range n {
		g.h0[i] = fmt.Sprintf("h%d", r.Intn(1000))
		g.defined[i], g.scope[i], g.selected[i] = true, true, r.Intn(5) > 0
	}
	outOfScope, undefined := n-2, n-1
	g.scope[outOfScope], g.selected[outOfScope] = false, false
	g.defined[undefined], g.scope[undefined], g.selected[undefined] = false, false, false
	g.h0[outOfScope], g.h0[undefined] = "", ""
	for _, e := range [][2]int{
		{0, 0},         // self-recursion
		{1, 2}, {2, 1}, // mutual recursion
		{3, 4}, {3, 5}, {4, 6}, {5, 6}, // diamond
		{6, outOfScope}, {2, undefined},
	} {
		g.edges[e[0]] = append(g.edges[e[0]], e[1])
	}
	// Random extra edges; only scanned (in-scope, defined) functions
	// have call edges.
	for i := range n {
		if !g.scope[i] {
			continue
		}
		for j := range n {
			if r.Intn(8) == 0 && !slices.Contains(g.edges[i], j) {
				g.edges[i] = append(g.edges[i], j)
			}
		}
	}
	return g
}

func (g *keyGraph) clone() *keyGraph {
	c := &keyGraph{
		h0:       slices.Clone(g.h0),
		scope:    slices.Clone(g.scope),
		selected: slices.Clone(g.selected),
		defined:  slices.Clone(g.defined),
	}
	for _, e := range g.edges {
		c.edges = append(c.edges, slices.Clone(e))
	}
	return c
}

// keys materializes g with symbols interned in the given order and
// returns every labeled function's inline key and reference closure
// string, by name.
func (g *keyGraph) keys(order []int) (keys, refs map[string]string) {
	prog := il.NewProgram()
	m := prog.AddModule("m")
	pids := make([]il.PID, len(g.h0))
	for _, i := range order {
		pids[i], _ = prog.Intern(fmt.Sprintf("f%02d", i), il.SymFunc)
		if g.defined[i] {
			prog.Sym(pids[i]).Module = m.Index
		}
	}
	p := &pass{
		prog:     prog,
		scope:    map[il.PID]bool{},
		selected: map[il.PID]bool{},
		callees:  map[il.PID][]il.PID{},
	}
	h0 := map[il.PID]string{}
	for i, pid := range pids {
		p.scope[pid], p.selected[pid] = g.scope[i], g.selected[i]
		if g.h0[i] != "" {
			h0[pid] = g.h0[i]
		}
		for _, j := range g.edges[i] {
			p.callees[pid] = append(p.callees[pid], pids[j])
		}
	}
	p.computeSCC()
	digests := p.closureDigests(h0)
	keys, refs = map[string]string{}, map[string]string{}
	for pid, c := range p.sccOf {
		name := prog.Sym(pid).Name
		keys[name] = name + "\x00" + digests[c]
		refs[name] = refClosureFP(p, pid, h0)
	}
	return keys, refs
}

// FuzzInlineClosureKey checks the Merkle inline key against the
// closure string it replaced: a member attribute change flips exactly
// the keys whose reference string flips, an edge change that flips a
// reference string flips the key too, and renumbering PIDs while
// keeping names leaves every key unchanged.
func FuzzInlineClosureKey(f *testing.F) {
	for seed := range int64(48) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		g := randomKeyGraph(r)
		n := len(g.h0)
		order := r.Perm(n)
		keys, refs := g.keys(order)

		// Renumbering: a different interning order, same names.
		if k2, _ := g.keys(r.Perm(n)); !maps.Equal(keys, k2) {
			t.Fatalf("seed %d: inline keys depend on PID numbering", seed)
		}

		// Attribute change on one member.
		a := g.clone()
		i := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			a.h0[i] += "'"
		case 1:
			a.scope[i] = !a.scope[i]
		case 2:
			a.selected[i] = !a.selected[i]
		case 3:
			a.defined[i] = !a.defined[i]
		}
		akeys, arefs := a.keys(order)
		for name, k := range akeys {
			if _, ok := keys[name]; !ok {
				continue // not labeled before (an unreachable undefined function)
			}
			refChanged, keyChanged := refs[name] != arefs[name], keys[name] != k
			if refChanged != keyChanged {
				t.Fatalf("seed %d: attribute change on f%02d: %s reference changed=%v, key changed=%v",
					seed, i, name, refChanged, keyChanged)
			}
		}

		// Edge change: add or remove one call edge of a scanned function.
		e := g.clone()
		u, v := r.Intn(n-2), r.Intn(n)
		if k := slices.Index(e.edges[u], v); k >= 0 {
			e.edges[u] = slices.Delete(e.edges[u], k, k+1)
		} else {
			e.edges[u] = append(e.edges[u], v)
		}
		ekeys, erefs := e.keys(order)
		for name, k := range ekeys {
			if _, ok := keys[name]; !ok {
				continue
			}
			if refs[name] != erefs[name] && keys[name] == k {
				t.Fatalf("seed %d: edge f%02d->f%02d changed %s's closure but not its key", seed, u, v, name)
			}
		}
	})
}
