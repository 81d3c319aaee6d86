// Command benchmark is the repository's performance record: one
// process runs one workload against the public build API (sessions,
// BuildSource, Train, and a cmod-style serve.Server with a CAS store),
// checks every output, and prints the result as one JSON object on the
// last line of standard output.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out dir]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with Options.Trace on every other
// build and the result carries the per-layer metrics. README.md
// records why each workload exists and which layer metric should move
// which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"cold-cmo":       (*bench).coldCMO,
	"cold-selective": (*bench).coldSelective,
	"edit-loop":      (*bench).editLoop,
	"shared-cache":   (*bench).sharedCache,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for program generation and the edit sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for cache directories, spans and run records")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) error {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	b, err := newBench(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	if err := runWorkload(b); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	b.check()

	res := result{Attempted: len(b.samples), Metrics: map[string]metric{}}
	for _, s := range b.samples {
		if s.Failure != "" {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		b.layerMetrics(res.Metrics)
	} else {
		b.endToEndMetrics(res.Metrics, res.Attempted, res.Failed)
	}
	if err := b.writeDetails(res); err != nil {
		return err
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeDetails records what the result line cannot hold: tail
// percentiles with their sample counts, every timed step, every check
// failure, and (traced runs) the benchmark's own spans as a Chrome
// trace.
func (b *bench) writeDetails(res result) error {
	dir := filepath.Join(b.cfg.out, "bench-results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", b.cfg.workload, b.cfg.seed, boolInt(b.cfg.trace))
	f, err := os.Create(filepath.Join(dir, base+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b.details(res)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if b.spans == nil {
		return nil
	}
	f, err = os.Create(filepath.Join(dir, base+"-spans.json"))
	if err != nil {
		return err
	}
	if err := b.spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
