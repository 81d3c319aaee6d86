package objfile

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/link"
	"cmo/internal/vpa"
)

const modA = `module a;
extern func twice(x int) int;
extern var base int;
var local int = 5;
func main() int { return twice(base) + twice(local); }
`

const modB = `module b;
var base int = 10;
func twice(x int) int { return x * 2; }
func helper() int { return twice(1); }
`

func compileBoth(t *testing.T, withIL bool) []*Object {
	t.Helper()
	var objs []*Object
	for _, m := range []struct{ name, text string }{{"a", modA}, {"b", modB}} {
		o, err := CompileSource(m.name+".minc", m.text, 2, withIL, false)
		if err != nil {
			t.Fatalf("compile %s: %v", m.name, err)
		}
		objs = append(objs, o)
	}
	return objs
}

func TestObjectEncodeDecodeRoundTrip(t *testing.T) {
	for _, withIL := range []bool{false, true} {
		objs := compileBoth(t, withIL)
		for _, o := range objs {
			var buf bytes.Buffer
			if err := o.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			back, err := DecodeObject(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.Module != o.Module || back.Lines != o.Lines {
				t.Errorf("header lost: %+v", back)
			}
			if len(back.Syms) != len(o.Syms) || len(back.Funcs) != len(o.Funcs) || len(back.IL) != len(o.IL) {
				t.Fatalf("section sizes differ")
			}
			for i := range o.Syms {
				a, b := o.Syms[i], back.Syms[i]
				if a.Name != b.Name || a.Kind != b.Kind || a.Defined != b.Defined ||
					a.Type != b.Type || a.Elems != b.Elems || a.Init != b.Init ||
					a.Ret != b.Ret || len(a.Params) != len(b.Params) {
					t.Errorf("sym %d differs: %+v vs %+v", i, a, b)
				}
			}
			for i := range o.Funcs {
				a, b := o.Funcs[i], back.Funcs[i]
				if a.LocalPID != b.LocalPID || a.Code.Name != b.Code.Name || len(a.Code.Code) != len(b.Code.Code) {
					t.Fatalf("func %d header differs", i)
				}
				for j := range a.Code.Code {
					if a.Code.Code[j] != b.Code.Code[j] {
						t.Errorf("func %d instr %d: %v != %v", i, j, a.Code.Code[j], b.Code.Code[j])
					}
				}
			}
			for i := range o.IL {
				if !bytes.Equal(o.IL[i].Blob, back.IL[i].Blob) {
					t.Errorf("IL blob %d differs", i)
				}
			}
		}
	}
}

func TestMergeAndLink(t *testing.T) {
	objs := compileBoth(t, true)
	ln, err := Merge(objs)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !ln.AllIL {
		t.Error("AllIL false despite IL objects")
	}
	// Remapped IL must verify and agree with direct interpretation.
	it := il.NewInterp(ln.Prog, func(p il.PID) *il.Function { return ln.IL[p] })
	want, err := it.Run("main", nil, 0)
	if err != nil {
		t.Fatalf("interp on merged IL: %v", err)
	}
	if want != 30 {
		t.Errorf("merged IL computes %d, want 30", want)
	}
	// The machine-code path must agree.
	img, err := link.Link(ln.Prog, ln.Code, link.Options{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vpa.NewMachine(img, vpa.DefaultConfig())
	got, err := m.Run(nil, 0)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if got != want {
		t.Errorf("machine %d != interp %d", got, want)
	}
}

func TestMergeDetectsDuplicateDefinition(t *testing.T) {
	o1, err := CompileSource("a.minc", "module a; func f() int { return 1; }", 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := CompileSource("b.minc", "module b; func f() int { return 2; }", 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Object{o1, o2}); err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Errorf("duplicate not detected: %v", err)
	}
}

func TestMergeDetectsInterfaceMismatch(t *testing.T) {
	o1, err := CompileSource("a.minc", `module a; extern func g(x int) int; func main() int { return g(1); }`, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := CompileSource("b.minc", `module b; func g(x int, y int) int { return x + y; }`, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Object{o1, o2}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("interface mismatch not detected: %v", err)
	}
}

func TestMergeDetectsUndefined(t *testing.T) {
	o1, err := CompileSource("a.minc", `module a; extern func ghost() int; func main() int { return ghost(); }`, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*Object{o1}); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("undefined symbol not detected: %v", err)
	}
}

func TestMergeWithoutIL(t *testing.T) {
	objs := compileBoth(t, false)
	ln, err := Merge(objs)
	if err != nil {
		t.Fatal(err)
	}
	if ln.AllIL {
		t.Error("AllIL true without IL sections")
	}
	if len(ln.FuncPIDsWithIL()) != 0 {
		t.Error("IL functions reported without IL")
	}
}

func TestImageRoundTrip(t *testing.T) {
	objs := compileBoth(t, false)
	ln, err := Merge(objs)
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(ln.Prog, ln.Code, link.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Disasm() != img.Disasm() {
		t.Error("image round trip differs")
	}
	m := vpa.NewMachine(back, vpa.DefaultConfig())
	got, err := m.Run(nil, 0)
	if err != nil || got != 30 {
		t.Errorf("decoded image runs to %d, %v; want 30", got, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeObject(strings.NewReader("not an object")); err == nil {
		t.Error("garbage object accepted")
	}
	if _, err := DecodeImage(strings.NewReader("not an image")); err == nil {
		t.Error("garbage image accepted")
	}
	// Truncations must error, not panic.
	objs := compileBoth(t, true)
	var buf bytes.Buffer
	objs[0].Encode(&buf)
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := DecodeObject(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated object (at %d) accepted", cut)
		}
	}
}

const modC = `module c;
var factor int = 4;
func tiny(x int) int { return x * factor; }
func driver(n int) int {
	var s int = 0;
	for (var i int = 0; i < n; i = i + 1) { s = s + tiny(i); }
	return s;
}
func main() int { return driver(10); }
`

// TestCompileModuleIntraHLO checks +O3 separate compilation: the
// within-module call gets inlined, every routine survives (any of
// them could be called from other modules), and behavior is intact.
func TestCompileModuleIntraHLO(t *testing.T) {
	plain, err := CompileSource("c.minc", modC, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := CompileSource("c.minc", modC, 2, false, true)
	if err != nil {
		t.Fatal(err)
	}
	// All functions still present (conservatively exported).
	if len(opt.Funcs) != len(plain.Funcs) {
		t.Errorf("+O3 dropped functions: %d vs %d", len(opt.Funcs), len(plain.Funcs))
	}
	run := func(objs []*Object) int64 {
		ln, err := Merge(objs)
		if err != nil {
			t.Fatal(err)
		}
		img, err := link.Link(ln.Prog, ln.Code, link.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := vpa.NewMachine(img, vpa.DefaultConfig())
		v, err := m.Run(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vPlain := run([]*Object{plain})
	vOpt := run([]*Object{opt})
	if vPlain != vOpt {
		t.Fatalf("+O3 changed result: %d vs %d", vOpt, vPlain)
	}
	// driver's call to tiny must have been inlined away.
	var driverCode []vpa.Instr
	for _, f := range opt.Funcs {
		if f.Code.Name == "driver" {
			driverCode = f.Code.Code
		}
	}
	for _, in := range driverCode {
		if in.Op == vpa.CALL {
			t.Error("+O3 did not inline the within-module call")
		}
	}
}

// EncodeImage stages every varint and fixed field in the writer, so
// its allocations do not grow with the image: encoding 50x the
// instructions costs the same handful of objects.
func TestEncodeImageAllocsFlat(t *testing.T) {
	image := func(funcs, instrs int) *vpa.Image {
		img := &vpa.Image{Globals: []vpa.Global{{Name: "g", Words: 1, Init: -7}}}
		for f := 0; f < funcs; f++ {
			fn := &vpa.Func{Name: "func_with_a_long_name", NSlots: 3}
			for i := 0; i < instrs; i++ {
				fn.Code = append(fn.Code, vpa.Instr{Op: vpa.MOVI, Rd: 1, Imm: int64(i) << 20, Sym: int32(-i), Target: int32(i)})
			}
			img.Funcs = append(img.Funcs, fn)
		}
		return img
	}
	allocs := func(img *vpa.Image) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := EncodeImage(io.Discard, img); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(image(2, 10)), allocs(image(10, 100))
	if small > 2 || large != small {
		t.Fatalf("EncodeImage allocs: %v for 20 instructions, %v for 1000; want a constant of at most 2", small, large)
	}
}
