package xform_test

import (
	"testing"

	"cmo/internal/experiments"
	"cmo/internal/lower"
	"cmo/internal/source"
	"cmo/internal/workload"
	"cmo/internal/xform"
)

// Every function of the gcc-like and Mcad1 presets, as lowered, must
// come out of the workspace pipeline byte-identical to the reference.
func TestOptimizeMatchesReferencePresets(t *testing.T) {
	for _, spec := range []workload.Spec{
		experiments.SpecPrograms(experiments.Config{})[2].Spec, // gcc
		experiments.McadPrograms(experiments.Config{})[0].Spec, // Mcad1
	} {
		var files []*source.File
		for _, m := range spec.Generate() {
			f, err := source.Parse(m.Name+".minc", m.Text)
			if err != nil {
				t.Fatalf("%s: parse %s: %v", spec.Name, m.Name, err)
			}
			if err := source.Check(f); err != nil {
				t.Fatalf("%s: check %s: %v", spec.Name, m.Name, err)
			}
			files = append(files, f)
		}
		res, err := lower.Modules(files)
		if err != nil {
			t.Fatalf("%s: lower: %v", spec.Name, err)
		}
		pids := res.Prog.FuncPIDs()
		for _, pid := range pids {
			if f := res.Funcs[pid]; f != nil {
				if err := xform.CheckMatchesReference(res.Prog, f); err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
			}
		}
		t.Logf("%s: %d functions identical", spec.Name, len(pids))
	}
}
