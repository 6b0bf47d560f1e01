package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"mbrim/internal/brim"
	"mbrim/internal/core"
	"mbrim/internal/diag"
	"mbrim/internal/journal"
	"mbrim/internal/lattice"
	"mbrim/internal/multichip"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
	"mbrim/internal/runs"
	"mbrim/internal/sa"
	"mbrim/internal/sbm"
	"mbrim/internal/tabu"
)

// runTraced is the traced run: every layer of the stack timed through
// its public functions, with perfbench's spans kept in memory and written
// out at the end. Every traced run reports every per-layer metric, but
// the time budget goes to the steps that explain the given workload's
// end-to-end metrics (README.md has the map); the other steps run only
// their minimum number of samples.
func runTraced(o *options, stderr io.Writer) (*result, error) {
	t := &tracedRun{o: o, stderr: stderr, spans: newSpanLog(), metrics: map[string]metric{}}
	drift := startDrift()
	root := t.spans.begin("traced_run", 0, 0)
	const mbrim, spin, daemon = "mbrim-k256", "spin-k512", "daemon-k32"
	steps := []struct {
		name   string
		share  float64
		owners []string
		fn     func(parent int, budget time.Duration) error
	}{
		{"lattice", 0.08, []string{mbrim, spin}, t.lattice},
		{"brim", 0.08, []string{mbrim}, t.brim},
		{"engines", 0.12, []string{spin}, t.engines},
		{"multichip", 0.2, []string{mbrim}, t.multichip},
		{"parallel_speedup", 0.08, []string{mbrim}, t.parallelSpeedup},
		{"core_dispatch", 0.04, []string{mbrim, spin, daemon}, t.dispatch},
		{"diag_emit", 0.04, []string{daemon}, t.diagEmit},
		{"runs_managed", 0.08, []string{daemon}, t.managed},
		{"journal_append", 0.04, []string{daemon}, t.journalAppend},
		{"mbrimd", 0.2, []string{daemon}, t.daemon},
	}
	owned := 0.0
	for _, s := range steps {
		if slices.Contains(s.owners, o.workload) {
			owned += s.share
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	for _, s := range steps {
		var d time.Duration
		if slices.Contains(s.owners, o.workload) {
			d = time.Duration(s.share / owned * float64(budget))
		}
		id := t.spans.begin(s.name, root, 0)
		err := s.fn(id, d)
		t.spans.end(id)
		if err != nil {
			t.spans.end(root)
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	t.spans.end(root)
	drift.finish()
	t.set("host.ref_loop_ms", drift.refMS(), "ms")
	t.set("host.steal_ticks", float64(drift.steal()), "count")
	fmt.Fprintf(stderr, "perfbench: %s\n", drift)

	dir := filepath.Join(o.buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := t.spans.writeChrome(base + ".bench.trace.json"); err != nil {
		return nil, err
	}
	if err := writeEngineTrace(base+".solve.trace.json", t.solveEvents); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: spans in %s.{bench,solve}.trace.json\n", base)
	t.chk.report(stderr)
	return &result{Correct: t.chk.ok(), Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}, nil
}

type tracedRun struct {
	o       *options
	stderr  io.Writer
	spans   *spanLog
	metrics map[string]metric
	chk     checks
	// attempted and failed count the solves and requests whose outputs
	// were checked.
	attempted, failed int
	// solveEvents is one traced multichip solve's engine event stream,
	// exported as a Chrome trace beside perfbench's own spans.
	solveEvents []obs.Event
}

func (t *tracedRun) set(name string, v float64, unit string) {
	t.metrics[name] = metric{v, unit}
}

// tally counts one checked operation.
func (t *tracedRun) tally(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.chk.failf("%v", err)
	}
}

// perCall times fn in blocks of reps calls until budget has passed (at
// least five blocks) and returns the median block's nanoseconds per
// call.
func perCall(budget time.Duration, reps int, fn func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	return median(xs)
}

// allocsPerCall is the mean heap allocation count of fn.
func allocsPerCall(reps int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for r := 0; r < reps; r++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps)
}

// lattice times the coupling kernel: dense K256 MatVec at 1 and 2
// workers (the BRIM derivative), K512 Fields (SBM) and the single-spin
// FlipFanout/FlipDelta pair (SA and tabu).
func (t *tracedRun) lattice(parent int, budget time.Duration) error {
	p256 := newProblem(256, canonicalGraphSeed)
	c256 := lattice.FromDense(256, p256.m.Couplings(), lattice.Dense, 1)
	x := make([]float64, 256)
	r := rng.New(1)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	out := make([]float64, 256)
	share := budget / 5
	for _, w := range []int{1, 2} {
		id := t.spans.begin(fmt.Sprintf("lattice.MatVec.w%d", w), parent, 0)
		d := perCall(share, 200, func() { lattice.MatVec(c256, x, nil, out, w) })
		t.spans.end(id)
		t.set(fmt.Sprintf("lattice.matvec_us.w%d", w), d/1e3, "us")
	}
	t.set("lattice.matvec_allocs", allocsPerCall(1000, func() { lattice.MatVec(c256, x, nil, out, 1) }), "count")

	p512 := newProblem(512, canonicalGraphSeed)
	c512 := lattice.FromDense(512, p512.m.Couplings(), lattice.Dense, 1)
	spins := make([]int8, 512)
	for i := range spins {
		spins[i] = r.Spin()
	}
	fields := make([]float64, 512)
	id := t.spans.begin("lattice.Fields", parent, 0)
	d := perCall(share, 50, func() { lattice.Fields(c512, spins, nil, fields, 1) })
	t.spans.end(id)
	t.set("lattice.fields_us", d/1e3, "us")

	k := 0
	id = t.spans.begin("lattice.FlipFanout", parent, 0)
	d = perCall(share, 2000, func() {
		c512.FlipFanout(fields, k, 2)
		k = (k + 1) % 512
	})
	t.spans.end(id)
	t.set("lattice.flip_fanout_ns", d, "ns")

	var sink float64
	id = t.spans.begin("lattice.FlipDelta", parent, 0)
	d = perCall(share, 200000, func() {
		sink += c512.FlipDelta(spins, fields, k, 0)
		k = (k + 1) % 512
	})
	t.spans.end(id)
	refLoopSink += sink
	t.set("lattice.flip_delta_ns", d, "ns")
	return nil
}

// brimModelNS is the model time of one timed single-chip BRIM run.
const brimModelNS = 10

// brimRetrySeeds is how many fixed seeds brim.step_retries sums over,
// so the count depends on the program alone, never on the time budget.
const brimRetrySeeds = 5

// brim times one dense K256 BRIM chip advancing brimModelNS of model
// time per call, from a fresh machine each call.
func (t *tracedRun) brim(parent int, budget time.Duration) error {
	p := newProblem(256, canonicalGraphSeed)
	var retries int64
	var walls []float64
	start := time.Now()
	for seed := uint64(1); len(walls) < brimRetrySeeds || time.Since(start) < budget; seed++ {
		ma := brim.New(p.m, brim.Config{Seed: seed, Backend: lattice.Dense})
		id := t.spans.begin("brim.Machine.Run", parent, 0)
		t0 := time.Now()
		err := ma.Run(brimModelNS)
		walls = append(walls, float64(time.Since(t0).Nanoseconds()))
		t.spans.end(id)
		t.tally(err)
		if seed <= brimRetrySeeds {
			retries += ma.StepRetries()
		}
	}
	t.set("brim.host_ns_per_model_ns", median(walls)/brimModelNS, "ns/ns")
	t.set("brim.step_retries", float64(retries), "count")
	// Allocations per step over whole runs, machine construction
	// excluded.
	ma := brim.New(p.m, brim.Config{Seed: 1, Backend: lattice.Dense})
	s0 := ma.Steps()
	allocs := allocsPerCall(1, func() { t.tally(ma.Run(brimModelNS)) })
	t.set("brim.allocs_per_step", allocs/float64(ma.Steps()-s0), "count")
	return nil
}

// The layer-suite efforts of the software engines on dense K512.
const (
	layerSASweeps   = 200
	layerSBMSteps   = 50
	layerTabuSweeps = 4
)

// engines times the three software engines of spin-k512 directly on
// dense K512 and checks each result like a spin-k512 op.
func (t *tracedRun) engines(parent int, budget time.Duration) error {
	p := newProblem(512, canonicalGraphSeed)
	ctx := context.Background()
	share := budget / 3
	type engine struct {
		name, metric string
		solve        func(seed uint64) ([]int8, float64, int, error)
	}
	list := []engine{
		{"sa", "sa.sweep_us", func(seed uint64) ([]int8, float64, int, error) {
			res, err := sa.SolveCtx(ctx, p.m, sa.Config{Sweeps: layerSASweeps, Seed: seed, Backend: lattice.Dense})
			return res.Spins, res.Energy, layerSASweeps, err
		}},
		{"sbm", "sbm.step_us", func(seed uint64) ([]int8, float64, int, error) {
			res, err := sbm.SolveCtx(ctx, p.m, sbm.Config{Variant: sbm.Discrete, Steps: layerSBMSteps, Seed: seed, Backend: lattice.Dense})
			return res.Spins, res.Energy, res.Steps, err
		}},
		{"tabu", "tabu.iter_us", func(seed uint64) ([]int8, float64, int, error) {
			res, err := tabu.SolveCtx(ctx, p.m, tabu.Config{MaxIters: layerTabuSweeps * 512, Seed: seed})
			return res.Spins, res.Energy, res.Iters, err
		}},
	}
	for _, e := range list {
		var perUnit []float64
		start := time.Now()
		for seed := uint64(1); len(perUnit) < 5 || time.Since(start) < share; seed++ {
			id := t.spans.begin(e.name+".Solve", parent, 0)
			t0 := time.Now()
			spins, energy, units, err := e.solve(seed)
			wall := time.Since(t0)
			t.spans.end(id)
			if err == nil {
				err = p.check(spins, energy, p.g.CutValue(spins))
			}
			if err != nil {
				err = fmt.Errorf("%s seed %d: %w", e.name, seed, err)
			}
			t.tally(err)
			if units > 0 {
				perUnit = append(perUnit, float64(wall.Nanoseconds())/float64(units))
			}
		}
		t.set(e.metric, median(perUnit)/1e3, "us")
		t.set(e.name+".allocs_per_solve", allocsPerCall(3, func() { _, _, _, _ = e.solve(1) }), "count")
	}
	return nil
}

// collector keeps an engine event stream in memory.
type collector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// multichip runs mbrim-k256's fixed seeds in pairs, untraced and with
// Request.SpanTrace, in alternating order. The span stream gives the
// epoch/chip-step/sync split, the outcomes the exact counts, and the
// pair timings the cost of tracing.
func (t *tracedRun) multichip(parent int, budget time.Duration) error {
	q := workloads["mbrim-k256"].quality
	p := newProblem(256, canonicalGraphSeed)
	var plain, traced time.Duration
	var epochSum, stepSum, syncSum, prepSum time.Duration
	var ex exact
	var tracedOps int
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for i := 0; i < q; i++ {
			req := mbrimRequest(p, uint64(i+1))
			run := func(trace bool) {
				r := req
				var col *collector
				name := "core.Solve"
				if trace {
					col = &collector{}
					r.Tracer, r.SpanTrace = col, true
					name = "core.Solve.traced"
				}
				id := t.spans.begin(name, parent, 0)
				t0 := time.Now()
				out, err := core.Solve(r)
				wall := time.Since(t0)
				t.spans.end(id)
				if err == nil {
					err = p.check(out.Spins, out.Energy, out.Cut)
				}
				if err != nil {
					err = fmt.Errorf("multichip seed %d: %w", i+1, err)
				}
				t.tally(err)
				if !trace {
					plain += wall
					return
				}
				traced += wall
				tracedOps++
				if t.solveEvents == nil {
					t.solveEvents = col.events
				}
				var solve, epochs time.Duration
				for _, e := range col.events {
					if e.Kind != obs.SpanEnd {
						continue
					}
					d := time.Duration(e.WallDurNS)
					switch e.Label {
					case "solve":
						solve += d
					case "epoch":
						epochs += d
						if pass == 0 {
							ex.Epochs++
						}
					case "chip_step":
						stepSum += d
					case "sync":
						syncSum += d
					}
				}
				epochSum += epochs
				prepSum += solve - epochs
				if pass == 0 && err == nil {
					ex.Ops++
					ex.Solves++
					ex.CutSum += out.Cut
					ex.Flips += out.Stats["flips"]
					ex.TrafficBytes += out.Stats["trafficBytes"]
				}
			}
			// Alternate which side goes first, so host drift within a
			// pair falls on both sides equally.
			if (pass+i)%2 == 0 {
				run(false)
				run(true)
			} else {
				run(true)
				run(false)
			}
		}
	}
	checkExact(t.o, ex, &t.chk)
	fmt.Fprintf(t.stderr, "perfbench: exact %s\n", ex)
	epochsTotal := float64(ex.Epochs) * float64(tracedOps) / float64(q)
	t.set("multichip.epoch_ms", ms(epochSum)/epochsTotal, "ms")
	t.set("multichip.sync_frac", float64(syncSum)/float64(epochSum), "frac")
	t.set("multichip.step_overlap", float64(stepSum)/float64(epochSum), "ratio")
	t.set("multichip.prepare_ms", ms(prepSum)/float64(tracedOps), "ms")
	t.set("multichip.flips", ex.Flips, "count")
	t.set("multichip.epochs", float64(ex.Epochs), "count")
	t.set("interconnect.traffic_bytes", ex.TrafficBytes, "B")
	// ops_per_s traced against untraced over the same solves.
	t.set("obs.tracing_overhead_frac", 1-float64(plain)/float64(traced), "frac")
	return nil
}

// parallelSpeedup times System.RunConcurrent on dense K256 with the 4
// chips integrated serially and on goroutines, in alternating order,
// and checks both give the same result.
func (t *tracedRun) parallelSpeedup(parent int, budget time.Duration) error {
	p := newProblem(256, canonicalGraphSeed)
	var serial, parallel []float64
	start := time.Now()
	for seed := uint64(1); len(serial) < 3 || time.Since(start) < budget; seed++ {
		results := map[bool]*multichip.Result{}
		run := func(par bool) error {
			sys, err := multichip.NewSystem(p.m, multichip.Config{Chips: 4, Seed: seed, Parallel: par, Backend: lattice.Dense})
			if err != nil {
				return err
			}
			id := t.spans.begin(fmt.Sprintf("multichip.RunConcurrent.parallel=%v", par), parent, 0)
			t0 := time.Now()
			res := sys.RunConcurrent(100)
			wall := float64(time.Since(t0).Nanoseconds())
			t.spans.end(id)
			if par {
				parallel = append(parallel, wall)
			} else {
				serial = append(serial, wall)
			}
			results[par] = res
			return nil
		}
		first := seed%2 == 0
		if err := run(first); err != nil {
			return err
		}
		if err := run(!first); err != nil {
			return err
		}
		s, q := results[false], results[true]
		var err error
		if math.Float64bits(s.Energy) != math.Float64bits(q.Energy) || s.Flips != q.Flips ||
			string(int8Bytes(s.Spins)) != string(int8Bytes(q.Spins)) {
			err = fmt.Errorf("multichip seed %d: parallel run differs from serial", seed)
		}
		t.tally(err)
	}
	t.set("multichip.parallel_speedup", median(serial)/median(parallel), "ratio")
	return nil
}

// dispatch measures what core.Solve adds over calling the engine
// directly on the same request: an SA sweep on dense K256, alternating
// the two calls.
func (t *tracedRun) dispatch(parent int, budget time.Duration) error {
	p := newProblem(256, canonicalGraphSeed)
	var viaCore, direct []float64
	ctx := context.Background()
	id := t.spans.begin("core.Solve-vs-sa.SolveCtx", parent, 0)
	defer t.spans.end(id)
	start := time.Now()
	for seed := uint64(1); len(direct) < 20 || time.Since(start) < budget; seed++ {
		t0 := time.Now()
		out, err := core.Solve(core.Request{Kind: core.SA, Model: p.m, Graph: p.g, Seed: seed, Sweeps: 1})
		t1 := time.Now()
		res, derr := sa.SolveCtx(ctx, p.m, sa.Config{Sweeps: 1, Seed: seed, Backend: lattice.Dense})
		t2 := time.Now()
		viaCore = append(viaCore, float64(t1.Sub(t0).Nanoseconds()))
		direct = append(direct, float64(t2.Sub(t1).Nanoseconds()))
		if err == nil {
			err = derr
		}
		if err == nil && math.Float64bits(out.Energy) != math.Float64bits(res.Energy) {
			err = fmt.Errorf("core.Solve energy %v, direct sa %v", out.Energy, res.Energy)
		}
		if err != nil {
			err = fmt.Errorf("dispatch seed %d: %w", seed, err)
		}
		t.tally(err)
	}
	t.set("core.dispatch_us", (median(viaCore)-median(direct))/1e3, "us")
	return nil
}

// diagEmit records a daemon-k32 run's event stream (spans, pair stats
// and 1 ns energy samples, as a managed run emits them) and replays it
// into fresh diag reducers.
func (t *tracedRun) diagEmit(parent int, budget time.Duration) error {
	p := newProblem(daemonK, canonicalGraphSeed)
	col := &collector{}
	req := daemonRequest(p, 1)
	req.Tracer, req.SpanTrace, req.Diag = col, true, true
	out, err := core.Solve(req)
	if err == nil {
		err = p.check(out.Spins, out.Energy, out.Cut)
	}
	t.tally(err)
	events := col.events
	if len(events) == 0 {
		return fmt.Errorf("no events recorded")
	}
	id := t.spans.begin("diag.Reducer.Emit", parent, 0)
	d := perCall(budget, 1, func() {
		r := diag.New(diag.Config{})
		for _, e := range events {
			r.Emit(e)
		}
		_ = r.Snapshot()
	})
	t.spans.end(id)
	t.set("diag.emit_ns_per_event", d/float64(len(events)), "ns")
	return nil
}

// managed measures runs.Manager.Submit → Done against the detached
// solve of the same daemon-k32 request, alternating the two.
func (t *tracedRun) managed(parent int, budget time.Duration) error {
	p := newProblem(daemonK, canonicalGraphSeed)
	mgr := runs.NewManager(runs.Config{Registry: obs.NewRegistry(), MaxActive: 1, RetainRuns: 4})
	var viaMgr, direct []float64
	start := time.Now()
	for seed := uint64(1); len(direct) < 10 || time.Since(start) < budget; seed++ {
		req := daemonRequest(p, seed)
		id := t.spans.begin("runs.Manager.Submit", parent, 0)
		t0 := time.Now()
		run, err := mgr.Submit(context.Background(), req)
		var out *core.Outcome
		if err == nil {
			<-run.Done()
			out, err = run.Outcome()
		}
		t1 := time.Now()
		t.spans.end(id)
		id = t.spans.begin("core.Solve", parent, 0)
		ref, rerr := core.Solve(req)
		t2 := time.Now()
		t.spans.end(id)
		viaMgr = append(viaMgr, float64(t1.Sub(t0).Nanoseconds()))
		direct = append(direct, float64(t2.Sub(t1).Nanoseconds()))
		if err == nil {
			err = rerr
		}
		if err == nil && (math.Float64bits(out.Energy) != math.Float64bits(ref.Energy) ||
			string(int8Bytes(out.Spins)) != string(int8Bytes(ref.Spins))) {
			err = fmt.Errorf("managed outcome differs from the detached solve")
		}
		if err == nil {
			err = p.check(out.Spins, out.Energy, out.Cut)
		}
		if err != nil {
			err = fmt.Errorf("managed seed %d: %w", seed, err)
		}
		t.tally(err)
	}
	t.set("runs.managed_overhead_ms", (median(viaMgr)-median(direct))/1e6, "ms")
	return nil
}

// journalAppend times fsynced journal appends in the state directory's
// filesystem.
func (t *tracedRun) journalAppend(parent int, budget time.Duration) error {
	root := filepath.Join(t.o.buildDir, "state")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := journal.Open(filepath.Join(dir, "run.journal"), nil)
	if err != nil {
		return err
	}
	summary, _ := json.Marshal(map[string]any{"energy": -123, "wallNS": 25000000, "spins": daemonK})
	n := 0
	id := t.spans.begin("journal.Writer.Append", parent, 0)
	d := perCall(budget, 5, func() {
		n++
		rec := journal.Record{Type: journal.TypeTerminal, ID: fmt.Sprintf("run-%d", n), State: "completed", Summary: summary}
		if err := w.Append(rec); err != nil {
			t.chk.failf("journal append: %v", err)
		}
	})
	t.spans.end(id)
	if err := w.Close(); err != nil {
		return err
	}
	t.set("journal.append_us", d/1e3, "us")
	return nil
}

// tracedDaemonMin is the least time the traced daemon step runs, so
// that the every-10th-op /metrics scrape has samples in every traced run.
const tracedDaemonMin = 2 * time.Second

// daemon runs the daemon-k32 loop with its request phases traced.
func (t *tracedRun) daemon(parent int, budget time.Duration) error {
	o := *t.o
	o.quality = workloads["daemon-k32"].quality
	s, err := openDaemon(&o)
	if err != nil {
		return err
	}
	d := s.(*daemon)
	d.spans, d.spanParent = t.spans, parent
	recs, _ := closedLoop(d, 2, 0, o.quality, max(budget, tracedDaemonMin))
	d.finish(recs, &t.chk)
	var submit, stream, diagMS, outcome, metricsMS, overhead, queue []float64
	var events, dropped int64
	for _, r := range recs {
		t.tally(r.err)
		if r.err != nil {
			continue
		}
		submit = append(submit, ms(r.phases.submit))
		stream = append(stream, ms(r.phases.stream))
		diagMS = append(diagMS, ms(r.phases.diag))
		outcome = append(outcome, ms(r.phases.outcome))
		if r.phases.metrics > 0 {
			metricsMS = append(metricsMS, ms(r.phases.metrics))
		}
		overhead = append(overhead, ms(r.lat)-float64(r.wallNS)/1e6)
		queue = append(queue, ms(r.queueWait))
		events += r.events
		dropped += r.dropped
	}
	if len(submit) == 0 {
		return fmt.Errorf("no daemon op succeeded")
	}
	t.set("mbrimd.submit_ms", median(submit), "ms")
	t.set("mbrimd.stream_ms", median(stream), "ms")
	t.set("mbrimd.diag_ms", median(diagMS), "ms")
	t.set("mbrimd.outcome_ms", median(outcome), "ms")
	t.set("mbrimd.metrics_ms", median(metricsMS), "ms")
	t.set("mbrimd.overhead_ms", median(overhead), "ms")
	t.set("runs.queue_wait_ms", mean(queue), "ms")
	t.set("obs.events_per_op", float64(events)/float64(len(submit)), "count")
	t.set("runs.events_dropped_frac", float64(dropped)/float64(events+dropped), "frac")
	return nil
}
