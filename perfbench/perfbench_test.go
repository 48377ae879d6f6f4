package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tuple"
)

// tinyConfig keeps the full shape (index pages < pool pages < heap
// pages) at a size a test runs in about a second per phase.
func tinyConfig() config {
	return config{
		rows:       6000,
		poolPages:  45,
		fillFactor: 0.5,
		scanKeys:   100,
		conns:      2,
		setups:     2,
		warm:       50 * time.Millisecond,
		measure:    200 * time.Millisecond,
		loadBatch:  500,
	}
}

// TestSmoke runs every workload untraced and traced at tiny size and
// checks that each emits exactly the metrics BENCHMARK.json declares,
// with the declared units, and that every reply checked out. It also
// runs mix, which the benchmark can run but BENCHMARK.json does not
// list (see README.md).
func TestSmoke(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, wl := range spec.Workloads {
		if !slices.Contains(workloads, wl.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark cannot run", wl.Name)
		}
		listed[wl.Name] = true
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(tinyConfig(), wl, 7, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, rep.correct, rep.attempted, rep.failed)
			}
			got := make(map[string]string)
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", wl, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q (emitted %v), want %q", wl, traced, m.Name, unit, ok, m.Unit)
				}
			}
			// A time that reads the same on every run says nothing: every
			// end-to-end metric, and every per-layer time, must be measured
			// on every workload BENCHMARK.json lists.
			for _, m := range rep.metrics {
				if listed[wl] && m.value == 0 && (!traced || slices.Contains([]string{"s", "us", "ns"}, m.unit)) {
					t.Errorf("%s traced=%v: metric %s is 0", wl, traced, m.name)
				}
			}
			var out strings.Builder
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s traced=%v: last line %q is not the result object (%v)", wl, traced, lines[len(lines)-1], err)
			}
			for _, m := range want {
				if v, ok := last.Metrics[m.Name]; !ok || v.Value == nil || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: result object lacks %s with unit %s", wl, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

// fakeExec answers from the data set itself, as a correct engine
// would, and lets a test corrupt one kind of reply.
type fakeExec struct {
	d       *dataset
	a       map[int64]int64 // acked updates
	corrupt func(id int64, row tuple.Row) tuple.Row
	drop    bool // scans lose their last row
}

func (f *fakeExec) rowOf(id int64) tuple.Row {
	a, ok := f.a[id]
	if !ok {
		a = f.d.a(id)
	}
	row := f.d.row(id, a)
	if f.corrupt != nil {
		row = f.corrupt(id, row)
	}
	return row
}

func (f *fakeExec) apply(row tuple.Row, rid uint64) (uint64, error) {
	f.a[row[0].Int] = row[1].Int
	return 1, nil
}

func (f *fakeExec) get(id int64) (tuple.Row, bool, error) { return f.rowOf(id), true, nil }

func (f *fakeExec) query(lo, hi int64, point bool, dst []covered) ([]covered, core.QueryStats, error) {
	if point {
		hi = lo + 1
	}
	for id := lo; id < hi; id += 2 {
		if f.drop && id+2 >= hi && !point {
			break
		}
		c, err := coveredOf(f.rowOf(id)[:3])
		if err != nil {
			return dst, core.QueryStats{}, err
		}
		dst = append(dst, c)
	}
	return dst, core.QueryStats{}, nil
}

// TestCheckerCatchesCorruptReplies drives workers over an executor
// that answers correctly, then over ones that corrupt a single field,
// drop a row, or forget an acked update, and expects every corruption
// to fail the worker.
func TestCheckerCatchesCorruptReplies(t *testing.T) {
	d := &dataset{seed: 3, rows: 2000}
	hot := hotOrder(d)
	rids := make([]uint64, d.rows)
	for i := range rids {
		rids[i] = uint64(i) + 1
	}
	drive := func(workload string, ex *fakeExec, ops int) *worker {
		ex.a = make(map[int64]int64)
		g := newGenerator(d, workload, 0, 2, 50, hot)
		w := newWorker(d, g, newModel(d, rids), ex, "fake.")
		for i := 0; i < ops && w.err == nil; i++ {
			o, _ := g.next()
			w.attempted++
			if _, _, err := w.do(o); err != nil {
				w.failed++
				w.err = err
			}
		}
		return w
	}
	for _, wl := range []string{"scan", "mix"} {
		if w := drive(wl, &fakeExec{d: d}, 500); w.err != nil {
			t.Fatalf("%s: correct replies rejected: %v", wl, w.err)
		}
	}
	setField := func(i int, v tuple.Value) func(int64, tuple.Row) tuple.Row {
		return func(_ int64, row tuple.Row) tuple.Row { row[i] = v; return row }
	}
	cases := []struct {
		name     string
		workload string
		ex       *fakeExec
	}{
		{"scan b", "scan", &fakeExec{d: d, corrupt: setField(2, tuple.Int32(7))}},
		{"scan a", "scan", &fakeExec{d: d, corrupt: setField(1, tuple.Int64(7))}},
		{"scan id", "scan", &fakeExec{d: d, corrupt: setField(0, tuple.Int64(-1))}},
		{"scan null", "scan", &fakeExec{d: d, corrupt: setField(2, tuple.Null(tuple.KindInt32))}},
		{"scan short", "scan", &fakeExec{d: d, drop: true}},
		{"mix note", "mix", &fakeExec{d: d, corrupt: setField(3, tuple.String("x"))}},
		{"mix b", "mix", &fakeExec{d: d, corrupt: setField(2, tuple.Int32(7))}},
		{"mix stale a", "mix", &fakeExec{d: d, corrupt: func(id int64, row tuple.Row) tuple.Row {
			row[1] = tuple.Int64(d.a(id)) // the value before any acked update
			return row
		}}},
	}
	for _, tc := range cases {
		w := drive(tc.workload, tc.ex, 5000)
		if w.err == nil || w.failed != 1 {
			t.Errorf("%s: corrupt replies not caught (failed=%d)", tc.name, w.failed)
		}
	}
}

// TestUnionLen checks the interval union that self and busy time rest on.
func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 6}}, 10},
		{[][2]int64{{0, 2}, {4, 6}, {5, 9}}, 7},
		{[][2]int64{{0, 10}, {2, 3}}, 10},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}
