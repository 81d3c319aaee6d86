package naim

import (
	"testing"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/source"
)

// Two modules; lowering them in different orders interns their symbols
// in different orders, so the same function gets different PIDs in the
// two programs — exactly the cross-build instability the portable
// encoding must be immune to.
const portableSrcA = `module alpha;
var ga int = 7;
func helper(x int) int { return x * 2 + ga; }
func touch() int { return helper(3); }`

const portableSrcB = `module beta;
var gb int = -3;
extern func helper(x int) int;
func entry(n int) int {
	var acc int = gb;
	for (var i int = 0; i < n; i = i + 1) { acc = acc + helper(i); }
	return acc;
}
func main() int { return entry(10); }`

func buildOrdered(t *testing.T, srcs ...string) (*il.Program, map[il.PID]*il.Function) {
	t.Helper()
	files := make([]*source.File, 0, len(srcs))
	for i, s := range srcs {
		f, err := source.Parse("t.minc", s)
		if err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
		if err := source.Check(f); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		files = append(files, f)
	}
	res, err := lower.Modules(files)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res.Prog, res.Funcs
}

func fnByName(prog *il.Program, fns map[il.PID]*il.Function, name string) *il.Function {
	sym := prog.Lookup(name)
	if sym == nil {
		return nil
	}
	return fns[sym.PID]
}

func TestPortableRoundTripAcrossPIDNumberings(t *testing.T) {
	progAB, fnsAB := buildOrdered(t, portableSrcA, portableSrcB)
	progBA, fnsBA := buildOrdered(t, portableSrcB, portableSrcA)

	for _, name := range []string{"helper", "touch", "entry", "main"} {
		src := fnByName(progAB, fnsAB, name)
		dst := fnByName(progBA, fnsBA, name)
		if src == nil || dst == nil {
			t.Fatalf("%s missing from a program", name)
		}
		if src.PID == dst.PID && name != "helper" {
			t.Logf("note: %s coincidentally shares a PID across orders", name)
		}
		blob := EncodePortableFunc(progAB, src)
		back, err := DecodePortableFunc(progBA, dst.PID, blob)
		if err != nil {
			t.Fatalf("decode %s into reordered program: %v", name, err)
		}
		if got, want := back.Print(progBA), dst.Print(progBA); got != want {
			t.Errorf("%s: portable round trip across numberings differs:\n--- native\n%s\n--- decoded\n%s", name, want, got)
		}
		if back.PID != dst.PID {
			t.Errorf("%s: decoded PID %d, want %d", name, back.PID, dst.PID)
		}
		if err := il.Verify(progBA, back); err != nil {
			t.Errorf("decoded %s does not verify: %v", name, err)
		}
	}
}

func TestPortableHashStableAcrossPIDNumberings(t *testing.T) {
	progAB, fnsAB := buildOrdered(t, portableSrcA, portableSrcB)
	progBA, fnsBA := buildOrdered(t, portableSrcB, portableSrcA)
	for _, name := range []string{"helper", "touch", "entry", "main"} {
		a := fnByName(progAB, fnsAB, name)
		b := fnByName(progBA, fnsBA, name)
		if HashPortableFunc(progAB, a) != HashPortableFunc(progBA, b) {
			t.Errorf("%s: portable hash differs across PID numberings", name)
		}
		// The streamed hash covers exactly the encoded bytes, so every
		// key derived from it keeps its value.
		if HashPortableFunc(progAB, a) != KeyOf(EncodePortableFunc(progAB, a)) {
			t.Errorf("%s: portable hash is not the hash of the portable encoding", name)
		}
	}
	// And distinct bodies must not collide.
	if HashPortableFunc(progAB, fnByName(progAB, fnsAB, "helper")) ==
		HashPortableFunc(progAB, fnByName(progAB, fnsAB, "entry")) {
		t.Error("distinct bodies share a portable hash")
	}
}

func TestPortableUnknownSymbolRejected(t *testing.T) {
	progAB, fnsAB := buildOrdered(t, portableSrcA, portableSrcB)
	// A program lowered without module beta has no symbol gb — "entry"
	// references it, so its artifact must be rejected there.
	progA, _ := buildOrdered(t, portableSrcA)
	blob := EncodePortableFunc(progAB, fnByName(progAB, fnsAB, "entry"))
	pid := progA.Lookup("touch").PID // any installed function slot
	if _, err := DecodePortableFunc(progA, pid, blob); err == nil {
		t.Error("decode resolving a missing symbol succeeded")
	}
}

func TestPortableDeterministicEncoding(t *testing.T) {
	prog, fns := buildOrdered(t, portableSrcA, portableSrcB)
	f := fnByName(prog, fns, "entry")
	b1 := EncodePortableFunc(prog, f)
	b2 := EncodePortableFunc(prog, f)
	if string(b1) != string(b2) {
		t.Error("portable encoding is not deterministic")
	}
}
