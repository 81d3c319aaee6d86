package hlo

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/naim"
)

// memReplay is an in-memory record store behind an Incremental hook,
// logging which functions' inline-stage lookups hit and which missed.
type memReplay struct {
	recs                     map[string][]byte
	inlineHits, inlineMisses []string
}

func (m *memReplay) incremental(prog *il.Program) *Incremental {
	key := func(kind string, parts []string) string {
		return kind + "\x00" + strings.Join(parts, "\x00")
	}
	return &Incremental{
		OptionsFP: "test",
		Hash: func(f *il.Function) string {
			k := naim.HashPortableFunc(prog, f)
			return string(k[:])
		},
		Load: func(kind string, parts ...string) ([]byte, bool) {
			blob, ok := m.recs[key(kind, parts)]
			if kind == "hlo/inline" {
				if ok {
					m.inlineHits = append(m.inlineHits, parts[1])
				} else {
					m.inlineMisses = append(m.inlineMisses, parts[1])
				}
			}
			return blob, ok
		},
		Store: func(kind string, blob []byte, parts ...string) {
			m.recs[key(kind, parts)] = blob
		},
		Encode: func(f *il.Function) []byte { return naim.EncodePortableFunc(prog, f) },
		Decode: func(pid il.PID, blob []byte) (*il.Function, error) {
			return naim.DecodePortableFunc(prog, pid, blob)
		},
	}
}

// recursiveSCCSrc has a mutually recursive pair (is_even/is_odd)
// reached through parity and twice, and a chain (bump/scale) that never
// reaches it.
func recursiveSCCSrc(oddBase int) []string {
	return []string{
		fmt.Sprintf(`module rec;
func is_even(n int) int { if (n == 0) { return 1; } return is_odd(n - 1); }
func is_odd(n int) int { if (n == 0) { return %d; } return is_even(n - 1); }
`, oddBase),
		`module mid;
extern func is_even(n int) int;
func parity(x int) int { return is_even(x) * 10 + 1; }
func twice(x int) int { return parity(x) + parity(x + 1); }
`,
		`module main;
extern func twice(x int) int;
func scale(x int) int { return x * 5 + 3; }
func bump(x int) int { return scale(x) + 1; }
func main() int { return twice(7) + bump(4); }
`,
	}
}

// TestInlineReplayRecursiveSCCEdit edits the member of a mutually
// recursive pair that no caller outside the pair calls directly. Every
// function whose closure reaches the pair must re-run its inline stage
// — the edit reaches them only through the SCC's digest — while the
// chain outside it replays, and the warm result must equal a live run.
func TestInlineReplayRecursiveSCCEdit(t *testing.T) {
	m := &memReplay{recs: map[string][]byte{}}
	prog, fns := build(t, recursiveSCCSrc(0)...)
	optimize(t, prog, fns, Options{Incremental: m.incremental(prog)})

	prog, fns = build(t, recursiveSCCSrc(2)...)
	m.inlineHits, m.inlineMisses = nil, nil
	warm, _ := optimize(t, prog, fns, Options{Incremental: m.incremental(prog)})
	live, _ := optimize(t, prog, fns, Options{})

	slices.Sort(m.inlineMisses)
	slices.Sort(m.inlineHits)
	if want := []string{"is_even", "is_odd", "main", "parity", "twice"}; !slices.Equal(m.inlineMisses, want) {
		t.Errorf("inline stage re-ran for %v, want %v", m.inlineMisses, want)
	}
	if want := []string{"bump", "scale"}; !slices.Equal(m.inlineHits, want) {
		t.Errorf("inline stage replayed for %v, want %v", m.inlineHits, want)
	}
	for pid, f := range live {
		if !bytes.Equal(naim.EncodePortableFunc(prog, warm[pid]), naim.EncodePortableFunc(prog, f)) {
			t.Errorf("%s: warm body differs from the live run", f.Name)
		}
	}
}
