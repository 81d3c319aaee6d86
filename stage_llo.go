package cmo

import (
	"cmo/internal/analyze"
	"cmo/internal/il"
)

// The LLO stage: compile every surviving function to machine code.
// With MultiLayer, each routine's tier picks its code-generation
// effort (paper section 8's layered strategy). The stage itself is the
// partitioned backend (stage_backend.go): routines are grouped into
// balanced callgraph-aware partitions and executed by a worker set —
// an in-process pool, remote cmod daemons, or any mix. This file holds
// the per-routine policy that backend applies.

// lloBytes models LLO's working-set for one routine: linear IR plus
// quadratic analysis structures (interference, scheduling windows).
func lloBytes(n int) int64 {
	nn := int64(n)
	return 96*nn + nn*nn/6
}

// testLLOVerify, when non-nil, replaces LLO's per-routine verification
// hook. It exists so tests can fail one routine's codegen mid-dispatch
// and prove the backend stops cleanly; it is never set outside tests.
var testLLOVerify func(*il.Function) error

// lloVerifyHook builds the per-routine re-verification hook for LLO's
// optimized working copy, just before emission. analyze.Function is
// pure over its inputs, so the hook is safe from parallel codegen
// workers. nil when verification is off.
func (b *Build) lloVerifyHook(opt Options) func(*il.Function) error {
	if testLLOVerify != nil {
		return testLLOVerify
	}
	if opt.Verify == analyze.Off {
		return nil
	}
	prog, level := b.Prog, opt.Verify
	return func(f *il.Function) error {
		return analyze.FirstError(analyze.Function(prog, f, level))
	}
}

// lloTier applies the multi-layer tier policy for one routine: the
// codegen effort and PBO choice it compiles with. Non-tiered routines
// get the build level's effort. Callers serialize it (it mutates tier
// stats).
func (b *Build) lloTier(opt Options, multiLayer bool, pid il.PID, f *il.Function) (int, bool) {
	lloLevel := 2
	if opt.Level == O1 {
		lloLevel = 1
	}
	if !multiLayer {
		return lloLevel, opt.PBO
	}
	switch {
	case f.Calls == 0:
		// Never executed during training: cheapest codegen.
		b.Stats.TierCold++
		return 1, false
	case !b.selectedFns[pid]:
		b.Stats.TierWarm++
		return lloLevel, opt.PBO
	default:
		b.Stats.TierHot++
		return lloLevel, opt.PBO
	}
}
