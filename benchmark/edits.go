package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	cmo "cmo"
)

// Edits a developer makes between builds. A semantic edit changes one
// integer literal in one hot function, so the image changes; a comment
// edit appends a comment line, so only the source text changes. Both
// return a new module slice and leave the input untouched, so earlier
// source states stay valid for the checks.

// commentPrefix starts every line a comment edit adds; the oracle key
// drops these lines (see semanticKey).
const commentPrefix = "// benchmark edit "

// editBands are the positions edits rotate through: the first, the
// middle and the last module. Where an edit lands decides how much of
// the hot call chain it dirties, so rotating keeps every run's mix of
// edit costs the same.
func editBands(modules int) [3]int { return [3]int{0, modules / 2, modules - 1} }

// semanticEdit rewrites the modulus in hot function h<mi>_<k>'s
// "var y int = b + x % M;" to a seeded value other than the current
// one. The modulus stays positive, so the program stays free of
// division by zero, and y feeds the function's result, so the image
// changes.
func semanticEdit(mods []cmo.SourceModule, mi, k int, rng *rand.Rand) ([]cmo.SourceModule, string, error) {
	text := mods[mi].Text
	fn := fmt.Sprintf("func h%d_%d(", mi, k)
	at := strings.Index(text, fn)
	if at < 0 {
		return nil, "", fmt.Errorf("module %d has no %s", mi, fn)
	}
	const stmt = "var y int = b + x % "
	rel := strings.Index(text[at:], stmt)
	if rel < 0 {
		return nil, "", fmt.Errorf("h%d_%d has no %q", mi, k, stmt)
	}
	lit := at + rel + len(stmt)
	end := lit + strings.IndexByte(text[lit:], ';')
	old, err := strconv.Atoi(text[lit:end])
	if err != nil {
		return nil, "", fmt.Errorf("h%d_%d: literal: %w", mi, k, err)
	}
	val := old
	for val == old {
		val = 3 + rng.Intn(997)
	}
	out := append([]cmo.SourceModule(nil), mods...)
	out[mi].Text = text[:lit] + strconv.Itoa(val) + text[end:]
	return out, fmt.Sprintf("semantic m%d h%d_%d %d->%d", mi, mi, k, old, val), nil
}

// commentEdit appends a numbered comment line to module mi; the number
// makes every comment edit change the text.
func commentEdit(mods []cmo.SourceModule, mi, n int, rng *rand.Rand) ([]cmo.SourceModule, string) {
	out := append([]cmo.SourceModule(nil), mods...)
	out[mi].Text += fmt.Sprintf("%s%d: %08x\n", commentPrefix, n, rng.Uint32())
	return out, fmt.Sprintf("comment m%d #%d", mi, n)
}

// semanticKey is the source state with the benchmark's comment lines
// removed: states that differ only in those lines share one oracle
// answer.
func semanticKey(mods []cmo.SourceModule) [32]byte {
	h := sha256.New()
	for _, m := range mods {
		io.WriteString(h, m.Name)
		h.Write([]byte{0})
		for _, line := range strings.SplitAfter(m.Text, "\n") {
			if !strings.HasPrefix(line, commentPrefix) {
				io.WriteString(h, line)
			}
		}
		h.Write([]byte{0})
	}
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}
