// Command loadbench is the repository's end-to-end benchmark. For one
// workload it builds the index through promips.Build or shard.Build, starts
// the promipsd binary of this checkout as its own process, drives it from
// this process through the client package over two connections, checks
// every answer, and prints the metrics as a JSON object on the last line of
// standard output.
//
//	loadbench -promipsd BIN -workload heldout-fit -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics. -trace 1 runs the same workload
// again, times the calls the benchmark makes into each layer, writes the
// spans to WORK/traces, and reports the per-layer metrics instead. See
// NOTES.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"promips/client"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	promipsd string
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics a run reports with -trace 0 and
// -trace 1; BENCHMARK.json names the same ones.
var endToEnd = []metricDef{
	{"search_p50_ms", "ms"}, {"ok_frac", "ratio"},
	{"recall_at_10", "ratio"}, {"overall_ratio", "ratio"}, {"setup_s", "s"},
	{"space_amp", "ratio"}, {"server_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"promipsd.wire_ms_p50", "ms"}, {"promipsd.resp_bytes_per_search", "B"},
	{"promipsd.rejected", "count"}, {"loadgen.late_ms_p99", "ms"}, {"trace.overhead_ms_p50", "ms"},
	{"loadgen.search_p90_ms", "ms"}, {"loadgen.search_p99_ms", "ms"}, {"loadgen.update_p50_ms", "ms"}, {"loadgen.update_p90_ms", "ms"}, {"loadgen.update_p99_ms", "ms"},
	{"loadgen.search_qps_max", "1/s"},
	{"promips.search_ms_p50", "ms"}, {"promips.search_ms_p99", "ms"},
	{"core.candidates_per_q", "count"}, {"core.pruned_per_q", "count"}, {"core.preranked_per_q", "count"},
	{"core.groups_probed_per_q", "count"}, {"core.prune_frac", "ratio"}, {"core.useful_frac", "ratio"},
	{"core.exhausted_frac", "ratio"},
	{"pager.pages_per_q", "count"}, {"pager.misses_per_q", "count"}, {"pager.hit_ratio", "ratio"},
	{"store.bytes_verified_per_q", "B"},
	{"vec.dot_ns", "ns"}, {"vec.kernel_ms_per_q", "ms"},
	{"promips.insert_ms_p50", "ms"}, {"core.freezes", "count"}, {"core.flushes", "count"},
	{"core.flush_failures", "count"}, {"core.segments_mean", "count"},
	{"promips.autocompact_runs", "count"}, {"promips.autocompact_failures", "count"}, {"promips.compact_s", "s"},
	{"shard.fanout_ms_p50", "ms"},
	{"promips.build_s", "s"}, {"promipsd.ready_s", "s"}, {"promips.warm_s", "s"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the data, queries, inserts and index")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds, split across the workload's phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.promipsd, "promipsd", "", "promipsd binary to benchmark (required)")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for indexes and traces")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.promipsd == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "loadbench: wrong answers")
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one workload and returns its report; the summary table goes
// to out.
func run(cfg config, out io.Writer) (report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return report{}, err
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.work, "run", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return report{}, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{cfg: cfg, w: w, in: makeInputs(w, cfg.seed, cfg.seconds), dir: runDir, out: out}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := b.run(); err != nil {
		return report{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		traceDir := filepath.Join(cfg.work, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return report{}, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return report{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	rep := report{Correct: b.tally.wrong == 0, Attempted: b.tally.attempted, Failed: b.tally.attempted - b.tally.ok, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "%-34s %14s  %s\n", "metric ("+w.name+")", "value", "unit")
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-34s %14.6g  %s%s\n", d.name, v, d.unit, b.notes[d.name])
	}
	var others []string
	for name := range b.metrics {
		if _, ok := rep.Metrics[name]; !ok {
			others = append(others, name)
		}
	}
	sort.Strings(others)
	for _, name := range others {
		fmt.Fprintf(out, "  also %-29s %14.6g%s\n", name, b.metrics[name], b.notes[name])
	}
	for _, e := range b.tally.errs {
		fmt.Fprintln(out, "error:", e)
	}
	if rep.Attempted == 0 {
		return report{}, errors.New("no operation attempted")
	}
	return rep, nil
}

// tally counts the measured operations: attempted, succeeded with a
// correct answer, and answered wrongly.
type tally struct {
	attempted, ok, wrong, rejected int
	errs                           []string // the first few failures, for the log
}

func (t *tally) add(err error, wrong bool) {
	t.attempted++
	var ae *client.APIError
	switch {
	case err == nil:
		t.ok++
		return
	case wrong:
		t.wrong++
	case errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests:
		t.rejected++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// percentile is the nearest-rank p-quantile of xs (p in (0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
