// Command benchmark is the repository's wall-clock benchmark: five
// closed-loop workloads driven from one process through the public entry
// points of each layer, every result checked against a DRAM oracle.
//
//	bash benchmark/run.sh -workload kv_get -seed 1            # end-to-end metrics
//	bash benchmark/run.sh -workload kv_get -seed 1 -trace 1   # per-layer metrics
//	bash benchmark/run.sh -workload all -repeat 2             # self-check of the bounds
//
// It is a module of its own (espresso/benchmark, go.mod beside this file)
// that takes the program it measures from the checkout around it, so the
// root module's `go build ./...` and `go test ./...` do not see it; run.sh
// builds it from the repository root and passes its arguments through.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full report (seed, op
// counts, host, sample counts, run time) is written under -out. See
// README.md for the metric tables and the load shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// report is what one workload run produced.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	// ungated are numbers an untraced run measures beside the end-to-end
	// metrics and reports without gating on them (see metrics.go).
	ungated map[string]float64
	tally   tally
	// info carries the run's provenance into the out/ document: op
	// counts, repetitions, sample counts per percentile, and so on.
	info map[string]any
}

// reportSeries stores the median of every per-repetition series: the
// end-to-end metrics as such, the others — measured the same way — as
// ungated.
func (r *report) reportSeries(sr series, reps int) {
	for name := range sr {
		if hasMetric(endToEnd, name) {
			r.e2e[name] = sr.median(name)
		} else {
			r.ungated[name] = sr.median(name)
		}
	}
	r.info["per_repetition"] = sr
	r.info["repetitions"] = reps
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, ungated: map[string]float64{}, info: map[string]any{}}
}

// outDoc is the document written to out/<workload>-seed<n>[-trace].json.
type outDoc struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	RunTimeS   float64            `json:"run_time_s"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FirstFail  string             `json:"first_failure,omitempty"`
	Metrics    map[string]metricV `json:"metrics"`
	Info       map[string]any     `json:"info"`
}

type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

func main() {
	var cfg config
	var traceN, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, a comma list, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed-pass budget per run")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "1/50 op counts and 1/16 key spaces (smoke test)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for reports, traces and temporary heap images")
	flag.IntVar(&repeat, "repeat", 0, "run the chosen workloads N times and check the spread between sets against each bound")
	flag.Parse()
	cfg.trace = traceN != 0

	names, err := expandWorkloads(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(selfCheck(cfg, names, repeat))
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		if _, err := runOne(cfg, true); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func expandWorkloads(arg string) ([]string, error) {
	if arg == "" {
		return nil, fmt.Errorf("-workload is required (one of %s, or all)", strings.Join(workloadNames(), ", "))
	}
	if arg == "all" {
		return workloadNames(), nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", "))
		}
	}
	return names, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// runOne runs one workload once, prints its table and result line, writes
// the out/ document, and returns an error if any operation failed.
func runOne(cfg config, print bool) (*report, error) {
	w, _ := findWorkload(cfg.workload)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r := newReport()
	start := time.Now()
	if err := w.run(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	runTime := time.Since(start)

	defs, vals := endToEnd, r.e2e
	if cfg.trace {
		defs, vals = perLayer, r.layer
	}
	metrics := make(map[string]metricV, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricV{Value: vals[d.Name], Unit: d.Unit}
	}
	correct := r.tally.failed == 0
	if !cfg.trace {
		r.info["ungated"] = r.ungated
		// An end-to-end metric that reads zero means a phase did not run.
		for _, d := range defs {
			if vals[d.Name] == 0 {
				correct = false
				if r.tally.first == "" {
					r.tally.first = "metric " + d.Name + " is zero"
				}
			}
		}
	}
	doc := outDoc{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(), RunTimeS: runTime.Seconds(),
		Correct: correct, Attempted: r.tally.attempted, Failed: r.tally.failed, FirstFail: r.tally.first,
		Metrics: metrics, Info: r.info,
	}
	suffix := ""
	if cfg.trace {
		suffix = "-trace"
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d%s.json", cfg.workload, cfg.seed, suffix))
	if b, err := json.MarshalIndent(doc, "", "  "); err == nil {
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if print {
		printTable(doc, defs)
		line, err := json.Marshal(resultLine{Correct: correct, Attempted: max(r.tally.attempted, 1), Failed: r.tally.failed, Metrics: metrics})
		if err != nil {
			return nil, err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return r, fmt.Errorf("%s: %d of %d operations failed (first: %s)", cfg.workload, r.tally.failed, r.tally.attempted, r.tally.first)
	}
	return r, nil
}

func printTable(doc outDoc, defs []metricDef) {
	fmt.Printf("# %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s commit=%s run=%.1fs\n",
		doc.Workload, doc.Seed, doc.Trace, doc.NProc, doc.GOMAXPROCS, doc.GoVersion, doc.Commit, doc.RunTimeS)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s better\t%s\n", d.Name, doc.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	tw.Flush()
	keys := make([]string, 0, len(doc.Info))
	for k := range doc.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "per_repetition" { // long; it is in the out/ document
			fmt.Printf("# %s = %v\n", k, doc.Info[k])
		}
	}
	share := 0.0
	if doc.Attempted > 0 {
		share = float64(doc.Failed) / float64(doc.Attempted)
	}
	fmt.Printf("# failed_share = %g (%d of %d)", share, doc.Failed, doc.Attempted)
	if doc.FirstFail != "" {
		fmt.Printf(" first: %s", doc.FirstFail)
	}
	fmt.Println()
}

// commitID names the tree being measured: the git commit when the
// benchmark runs inside a repository, "unknown" in a bare checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// selfCheck runs every chosen workload `sets` times back to back and
// prints, per end-to-end metric, the spread between sets beside its
// bound. It exits non-zero when a spread exceeds its bound or a run fails.
func selfCheck(cfg config, names []string, sets int) int {
	code := 0
	for _, name := range names {
		cfg.workload = name
		vals := map[string][]float64{}
		for s := 0; s < sets; s++ {
			r, err := runOne(cfg, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], r.e2e[d.Name])
			}
		}
		fmt.Printf("# %s seed=%d: spread over %d sets, (max-min)/median\n", name, cfg.seed, sets)
		tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
		for _, d := range endToEnd {
			v := vals[d.Name]
			lo, hi := quantile(v, 0), quantile(v, 1)
			spread := (hi - lo) / median(v)
			verdict := "ok"
			// setup_s is gated on its median by the driver, not on spread.
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\tspread %.2f%%\tbound %.0f%%\t%s\n", d.Name, median(v), d.Unit, spread*100, d.Bound*100, verdict)
		}
		tw.Flush()
	}
	return code
}
