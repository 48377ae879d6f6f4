// Command perfbench is the repository's served-engine benchmark. One
// invocation runs one named workload end to end: it sets up a WAL
// database, serves it from an in-process nblb-server over loopback,
// drives it with the client package on two closed-loop connections,
// checks every reply, and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is traced and reports the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/tuple"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

var workloads = []string{"ingest", "scan", "mix"}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest, scan or mix")
	seed := fs.Uint64("seed", 1, "seed of the data set and the op streams")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for database files and the trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds ≥ 1 and --trace 0|1\n", workloads)
		return 2
	}
	cfg := defaultConfig()
	cfg.measure = time.Duration(*seconds) * time.Second
	rep, err := run(cfg, *workload, *seed, *trace == 1, *dir)
	if rep != nil {
		rep.print(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number. samples is how many measurements it
// rests on; base, when set, says what a ratio was computed from.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int64
	base    string
}

type report struct {
	facts     []string
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

func (r *report) add(name string, value float64, unit string, samples int64) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

func (r *report) addRatio(name, unit string, x ratio) {
	r.metrics = append(r.metrics, metric{name: name, value: x.value(), unit: unit, samples: int64(x.den),
		base: fmt.Sprintf("%.0f %s / %.0f %s", x.num, x.numName, x.den, x.denName)})
}

func (r *report) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

// count tallies the attempts and failures of every worker of a phase.
func (r *report) count(p *phaseResult) {
	for _, w := range p.workers {
		r.attempted += w.attempted
		r.failed += w.failed
	}
}

func (r *report) print(w io.Writer) {
	for _, f := range r.facts {
		fmt.Fprintln(w, "#", f)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]map[string]any{}}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-40s %14.4f %-6s n=%d", m.name, m.value, m.unit, m.samples)
		if m.base != "" {
			line += "  (" + m.base + ")"
		}
		fmt.Fprintln(w, line)
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	doc, _ := json.Marshal(out) // a struct of maps, numbers and strings always encodes
	fmt.Fprintln(w, string(doc))
}

// run executes one invocation. A report comes back whenever a workload
// ran, also when a check failed.
func run(cfg config, workload string, seed uint64, traced bool, dir string) (*report, error) {
	root := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	d := &dataset{seed: seed, rows: cfg.rows}
	var hot []int32
	if workload == "mix" {
		hot = hotOrder(d)
	}
	rep := &report{}
	rep.fact("workload=%s seed=%d measure=%s warm=%s rows=%d pool_pages=%d conns=%d GOMAXPROCS=%d num_cpu=%d",
		workload, seed, cfg.measure, cfg.warm, cfg.rows, cfg.poolPages, cfg.conns, runtime.GOMAXPROCS(0), runtime.NumCPU())
	var err error
	if traced {
		err = runTraced(cfg, d, workload, hot, root, dir, rep)
	} else {
		err = runUntraced(cfg, d, workload, hot, root, rep)
	}
	rep.correct = err == nil && rep.failed == 0
	if err != nil && rep.attempted == 0 {
		return nil, err
	}
	return rep, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (r *report) shape(in *instance, cfg config) {
	r.fact("shape: index_pages=%d < pool_pages=%d < heap_pages=%d; cache warmed for %d of %d rows; flush=WAL group commit, 4 MiB checkpoint budget",
		in.idxPages, cfg.poolPages, in.heapPages, in.warmed, cfg.rows)
}

// runUntraced reports the end-to-end metrics. It sets up cfg.setups
// databases and reports the median set-up time, then serves the
// workload on the last one.
func runUntraced(cfg config, d *dataset, workload string, hot []int32, root string, rep *report) (err error) {
	in, times, err := setUpMany(cfg, d, root, cfg.setups)
	if err != nil {
		return err
	}
	defer func() { err = joinClose(err, in) }()
	rep.shape(in, cfg)
	res, err := served(cfg, d, in, workload, hot, nil)
	if err != nil {
		return err
	}
	rep.count(res)
	if err := res.firstErr(); err != nil {
		return err
	}
	ops := res.ops()
	var acked []int64
	logical := in.logical
	for _, w := range res.workers {
		acked = append(acked, w.acked...)
		logical += w.logical
	}
	dbBytes, err := in.dbBytes()
	if err != nil {
		return err
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	rep.add("setup_s", times[len(times)/2].Seconds(), "s", int64(len(times)))
	rep.add("op_p50_us", us(res.p50()), "us", ops)
	rep.addRatio("space_amp", "ratio", per(float64(dbBytes), "database file bytes", float64(logical), "live row bytes"))
	rep.add("mem_peak_mb", float64(res.memPeak)/(1<<20), "MB", int64(res.memWindows))
	rep.fact("not gated, too noisy on a shared VM: ops/s=%.1f p99=%.1fus over %d ops",
		res.opsPerSec(), us(quantile(res.latencies(opInsert, opUpdate, opGet, opPoint, opScan), 0.99)), ops)
	if workload == "ingest" {
		missing, err := verifyIngest(cfg, d, in, acked)
		rep.attempted += int64(len(acked))
		rep.failed += missing
		return err
	}
	return nil
}

// verifyIngest closes the engine cleanly, reopens the database and
// checks that every acknowledged insert is there with the generator's
// values. It returns how many were missing or wrong.
func verifyIngest(cfg config, d *dataset, in *instance, acked []int64) (int64, error) {
	err := in.eng.Close()
	in.eng = nil
	if err != nil {
		return 0, err
	}
	eng, _, err := openEngine(in.path, cfg.poolPages)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer eng.Close()
	tb, err := eng.Table(tableName)
	if err != nil {
		return 0, err
	}
	ix, err := tb.Index(indexName)
	if err != nil {
		return 0, err
	}
	var bad int64
	var errs []error
	for _, id := range acked {
		row, res, err := ix.Lookup(nil, tuple.Int64(id))
		if err == nil && !res.Found {
			err = fmt.Errorf("acked insert %d missing after reopen", id)
		}
		if err == nil {
			err = checkFull(d, id, row, d.a(id), true)
		}
		if err != nil {
			bad++
			if len(errs) < 3 {
				errs = append(errs, err)
			}
		}
	}
	if want := int64(d.rows + len(acked)); tb.Rows() != want {
		errs = append(errs, fmt.Errorf("reopened table has %d rows, want %d", tb.Rows(), want))
	}
	return bad, errors.Join(errs...)
}
