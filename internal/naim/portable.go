package naim

import (
	"crypto/sha256"
	"fmt"

	"cmo/internal/il"
)

// The portable encoding of a routine pool: the relocatable form a
// durable repository stores across builds.
//
// The in-process relocatable form (EncodeFunc) references symbols by
// PID, which is only stable within one symbol table: editing a module
// shifts the interning order and renumbers everything after it. A
// durable artifact therefore references symbols by *name*, carrying a
// local name table (distinct referenced symbols in first-use order)
// and encoding each reference as an index into it. Decoding swizzles
// names back to the current program's PIDs — the cross-build analogue
// of the paper's eager swizzling at pool load.
//
// Because the encoding mentions no PID at all, the encoded bytes are
// identical across builds whenever the IR is semantically identical,
// which makes HashPortableFunc the module-fingerprint primitive: two
// bodies hash equal exactly when a warm rebuild may reuse one for the
// other.

const portableMagic = 0xF2

// opUsesSym reports whether an op's Sym field is a symbol reference.
// On every other op Sym is an unset zero value — and PID 0 names a
// real symbol, so encoding it as a reference would drag an unrelated
// name into the artifact and destabilize the hash.
func opUsesSym(op il.Op) bool {
	switch op {
	case il.LoadG, il.StoreG, il.LoadX, il.StoreX, il.Call:
		return true
	}
	return false
}

// EncodePortableFunc compacts a routine pool into its name-symbolic
// portable form: the header (magic and name table), then the body.
func EncodePortableFunc(prog *il.Program, f *il.Function) []byte {
	names, body := encodePortableBody(prog, f)
	return append(appendPortableHeader(make([]byte, 0, len(body)+16*len(names)+8), names), body...)
}

// encodePortableBody encodes f's body, collecting the local name table
// (distinct referenced symbols in first-use order) as it goes.
func encodePortableBody(prog *il.Program, f *il.Function) (names []string, body []byte) {
	idx := map[il.PID]uint64{} // PID -> table index + 1 (0 = NoPID)
	ref := func(pid il.PID) uint64 {
		if pid == il.NoPID {
			return 0
		}
		if i, ok := idx[pid]; ok {
			return i
		}
		names = append(names, prog.Sym(pid).Name)
		idx[pid] = uint64(len(names))
		return idx[pid]
	}

	body = make([]byte, 0, 16+f.NumInstrs()*6)
	body = appendUvarint(body, uint64(f.NParams))
	body = append(body, byte(f.Ret))
	body = appendUvarint(body, uint64(f.NRegs))
	body = appendUvarint(body, uint64(f.SrcLines))
	body = appendVarint(body, f.Calls)
	body = appendUvarint(body, uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		body = appendVarint(body, blk.Freq)
		body = appendVarint(body, int64(blk.T))
		body = appendVarint(body, int64(blk.F))
		body = appendUvarint(body, uint64(len(blk.Instrs)))
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			body = append(body, byte(in.Op))
			body = appendUvarint(body, uint64(in.Dst))
			body = appendValue(body, in.A)
			body = appendValue(body, in.B)
			if opUsesSym(in.Op) {
				body = appendUvarint(body, ref(in.Sym))
			}
			body = appendUvarint(body, uint64(len(in.Args)))
			for _, arg := range in.Args {
				body = appendValue(body, arg)
			}
		}
	}
	return names, body
}

// appendPortableHeader appends the magic byte and the name table.
func appendPortableHeader(b []byte, names []string) []byte {
	b = append(b, portableMagic)
	b = appendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	return b
}

// DecodePortableFunc expands a portable pool against the current
// program, resolving the name table to this build's PIDs. The body is
// installed under pid (the current PID of the symbol the artifact was
// cached for). Unresolvable names mean the artifact belongs to a
// different program shape — an error, never a guess.
func DecodePortableFunc(prog *il.Program, pid il.PID, blob []byte) (*il.Function, error) {
	r := &reader{b: blob}
	if r.byte() != portableMagic {
		return nil, errCorrupt
	}
	nnames := r.uvarint()
	if r.err != nil || nnames > uint64(len(blob)) {
		return nil, errCorrupt
	}
	pids := make([]il.PID, nnames)
	for i := range pids {
		n := r.uvarint()
		if r.err != nil || r.off+int(n) > len(blob) {
			return nil, errCorrupt
		}
		name := string(blob[r.off : r.off+int(n)])
		r.off += int(n)
		sym := prog.Lookup(name)
		if sym == nil {
			return nil, fmt.Errorf("naim: portable pool references unknown symbol %q", name)
		}
		pids[i] = sym.PID
	}
	deref := func(i uint64) (il.PID, bool) {
		if i == 0 {
			return il.NoPID, true
		}
		if i > uint64(len(pids)) {
			return il.NoPID, false
		}
		return pids[i-1], true
	}

	f := &il.Function{
		PID:     pid,
		Name:    prog.Sym(pid).Name,
		NParams: int(r.uvarint()),
		Ret:     il.Type(r.byte()),
		NRegs:   il.Reg(r.uvarint()),
	}
	f.SrcLines = int(r.uvarint())
	f.Calls = r.varint()
	nblocks := r.uvarint()
	if r.err != nil || nblocks > uint64(len(blob)) {
		return nil, errCorrupt
	}
	f.Blocks = make([]*il.Block, 0, nblocks)
	for bi := uint64(0); bi < nblocks; bi++ {
		blk := &il.Block{}
		blk.Freq = r.varint()
		blk.T = int32(r.varint())
		blk.F = int32(r.varint())
		n := r.uvarint()
		if r.err != nil || n > uint64(len(blob)) {
			return nil, errCorrupt
		}
		blk.Instrs = make([]il.Instr, n)
		for ii := uint64(0); ii < n; ii++ {
			in := &blk.Instrs[ii]
			in.Op = il.Op(r.byte())
			in.Dst = il.Reg(r.uvarint())
			in.A = r.value()
			in.B = r.value()
			if opUsesSym(in.Op) {
				sym, ok := deref(r.uvarint())
				if !ok {
					return nil, errCorrupt
				}
				in.Sym = sym
			}
			nargs := r.uvarint()
			if r.err != nil || nargs > uint64(len(blob)) {
				return nil, errCorrupt
			}
			if nargs > 0 {
				in.Args = make([]il.Value, nargs)
				for ai := uint64(0); ai < nargs; ai++ {
					in.Args[ai] = r.value()
				}
			}
		}
		f.Blocks = append(f.Blocks, blk)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(blob) {
		return nil, fmt.Errorf("naim: %d trailing bytes in portable pool", len(blob)-r.off)
	}
	return f, nil
}

// HashPortableFunc returns the content key of a body's portable
// encoding: equal across builds iff the IR (including symbol names it
// references) is equal, regardless of PID numbering. It hashes the
// bytes EncodePortableFunc returns, streaming the header and the body
// into the hasher instead of concatenating them first.
func HashPortableFunc(prog *il.Program, f *il.Function) Key {
	names, body := encodePortableBody(prog, f)
	h := sha256.New()
	h.Write(appendPortableHeader(nil, names))
	h.Write(body)
	var k Key
	h.Sum(k[:0])
	return k
}
