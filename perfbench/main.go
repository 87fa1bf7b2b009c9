// Command perfbench is the repository's end-to-end benchmark. It drives the
// analysis from outside through its public entry points — the compiler and
// assembler front ends, the prepare-artifact cache, prepared ipet sessions,
// and the cinderelld /v1 HTTP API — checks every answer against an
// independent referee, and prints its metrics, the last line of standard
// output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload oneshot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates untraced and traced rounds and reports the per-layer ones.
// WORKLOADS.md records why each workload exists, its loop model, and which
// metrics it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "ops/s"},
	{"latency_ms.geomean", "ms"},
	{"latency_ms.p50", "ms"},
}

// perLayer are the metrics every traced run prints, in BENCHMARK.json
// order. A layer the workload's operations never call reports 0.
var perLayer = []metricDef{
	{"cc.build_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"prepcache.build_program_ms", "ms"},
	{"prepcache.hit_ratio", "ratio"},
	{"prepcache.mb", "MB"},
	{"ipet.prepare_ms", "ms"},
	{"constraint.parse_us", "us"},
	{"ipet.apply_us", "us"},
	{"ipet.estimate_us", "us"},
	{"ipet.sets_per_op", "count"},
	{"ipet.session_hit_ratio", "ratio"},
	{"ipet.cache_entries_per_kreq", "count"},
	{"ilp.pivots_per_op", "count"},
	{"ilp.warm_share", "ratio"},
	{"ilp.network_share", "ratio"},
	{"ilp.revised_pivot_share", "ratio"},
	{"certify.exact_resolves_per_op", "count"},
	{"certify.rechecked_per_op", "count"},
	{"certify.suspect_pivots", "count"},
	{"certify.cert_failures", "count"},
	{"certify.overhead_x", "x"},
	{"serve.roundtrip_us.p50", "us"},
	{"serve.handler_us.p50", "us"},
	{"serve.wire_us.p50", "us"},
	{"serve.overhead_us.p50", "us"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.evictions_per_kreq", "count"},
	{"serve.cold_share", "ratio"},
	{"serve.prepare_us.p50", "us"},
	{"serve.store_mb", "MB"},
	{"serve.formula_share", "ratio"},
	{"serve.retries", "count"},
	{"serve.typed_errors", "count"},
	{"serve.degraded", "count"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"failed_share", "ratio"},
	{"inexact_share", "ratio"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// rounds, when positive, runs exactly that many rounds instead of
	// measuring for seconds (the benchmark's own tests use it).
	rounds int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	// Every workload is one closed-loop caller over a one-worker solver, so
	// a second P only adds cross-CPU handoffs (client to server, background
	// GC) whose cost depends on how the host schedules another vCPU. At one
	// P the numbers measure single-core cost on any machine.
	runtime.GOMAXPROCS(1)
	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.lines = append(rep.lines, fmt.Sprintf("spans written to %s (%d spans)", path, rep.spans.n))
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out, err := rep.json(cfg.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// report is what one run prints: human-readable lines (every timing with
// its sample count), then the JSON result.
type report struct {
	lines     []string
	values    map[string]float64
	attempted int
	failed    int
	wrong     int
	spans     *tracer
	// digest names the generated inputs; work sums the work counters of
	// the traced rounds' answers. Both repeat exactly for a repeated seed.
	digest string
	work   workTotals
}

func newReport(cfg config, digest string) *report {
	r := &report{values: map[string]float64{}, digest: digest}
	r.printf("perfbench workload=%s seed=%d inputs=%s trace=%t go=%s GOMAXPROCS=%d",
		cfg.workload, cfg.seed, digest, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	return r
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// set records a metric value and prints it with its unit and sample count.
func (r *report) set(name string, v float64, samples string) {
	r.values[name] = v
	r.printf("metric %-30s %14.6g %-6s (%s)", name, v, unitOf(name), samples)
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return "ratio"
}

// json renders the result object: every end-to-end metric on untraced runs,
// every per-layer metric on traced ones.
func (r *report) json(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = val{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
}

// correct reports whether every answer matched its referee: exact, equal
// to the referee, and certified where certification was asked for.
func (r *report) correct() bool { return r.wrong == 0 }
