package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"promips"
)

// benchmarkFile is the slice of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// buildPromipsd compiles the server of this checkout once per test binary.
func buildPromipsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "promipsd")
	cmd := exec.Command("go", "-C", "..", "build", "-o", bin, "./cmd/promipsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build promipsd: %v\n%s", err, out)
	}
	return bin
}

// runBrief runs one workload for two seconds and returns its result line
// as main prints it, decoded.
func runBrief(t *testing.T, bin, name string, trace bool) report {
	t.Helper()
	rep, err := run(config{workload: name, seed: 7, seconds: 2, trace: trace, promipsd: bin, work: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Fatalf("%s (trace %v): correct %v attempted %d failed %d", name, trace, got.Correct, got.Attempted, got.Failed)
	}
	return got
}

// TestWorkloads runs every workload briefly, untraced and traced: each
// must print exactly the metrics BENCHMARK.json names, with their units,
// and the deterministic per-layer counters of a read workload must repeat
// exactly across two runs of the same seed.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts promipsd for every workload")
	}
	bf := loadBenchmarkFile(t)
	bin := buildPromipsd(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	traced := map[string]report{}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			rep := runBrief(t, bin, name, trace)
			want := map[string]string{}
			if trace {
				traced[name] = rep
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", name, trace, len(rep.Metrics), len(want))
			}
			for n, unit := range want {
				if m, ok := rep.Metrics[n]; !ok || m.Unit != unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", name, trace, n, m, unit)
				}
			}
		}
	}

	again := runBrief(t, bin, "heldout-fit", true)
	for _, n := range []string{"core.candidates_per_q", "pager.pages_per_q", "core.pruned_per_q", "promipsd.resp_bytes_per_search"} {
		if a, b := traced["heldout-fit"].Metrics[n].Value, again.Metrics[n].Value; a != b {
			t.Errorf("%s: %v then %v; deterministic counters must repeat exactly", n, a, b)
		}
	}
}

// TestCorruptAnswersCaught feeds the run's answer checks an exact answer
// and corrupted copies of it: the exact one passes, every corruption is
// counted as a wrong answer and turns the report incorrect.
func TestCorruptAnswersCaught(t *testing.T) {
	w, err := findWorkload("heldout-fit")
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(w, 3, 1)
	gt := computeTruth(in, 1, in.data, in.data)
	exact := make([]promips.Result, topK)
	for i, r := range gt.top[0] {
		exact[i] = promips.Result{ID: r.ID, IP: r.IP}
	}

	corrupt := map[string]func([]promips.Result) []promips.Result{
		"ip off by 1e-4": func(r []promips.Result) []promips.Result { r[3].IP *= 1 + 1e-4; return r },
		"order swapped":  func(r []promips.Result) []promips.Result { r[0], r[1] = r[1], r[0]; return r },
		"result missing": func(r []promips.Result) []promips.Result { return r[:topK-1] },
		"id repeated":    func(r []promips.Result) []promips.Result { r[5] = r[4]; return r },
		"foreign point":  func(r []promips.Result) []promips.Result { r[9].ID = (r[9].ID + 1) % dataN; return r },
	}
	for _, byValue := range []bool{false, true} {
		truthUsed := gt
		if !byValue {
			truthUsed.all = nil
		}
		b := &bench{w: w, in: in}
		b.checkSearches([]outcome{{op: op{kind: opSearch, item: 0}, res: append([]promips.Result(nil), exact...)}}, truthUsed)
		if b.tally.wrong != 0 || b.tally.ok != 1 {
			t.Fatalf("by value %v: exact answer rejected: %v", byValue, b.tally.errs)
		}
		for name, f := range corrupt {
			if byValue && name == "foreign point" {
				continue // an id alone is not checked by value
			}
			b := &bench{w: w, in: in}
			res := f(append([]promips.Result(nil), exact...))
			b.checkSearches([]outcome{{op: op{kind: opSearch, item: 0}, res: res}}, truthUsed)
			if b.tally.wrong != 1 {
				t.Errorf("by value %v: %s not caught", byValue, name)
			}
		}
	}
}
