package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/graph"
	"mbrim/internal/ising"
	"mbrim/internal/rng"
)

// workload is one closed-loop traffic mix.
type workload struct {
	// clients is the number of concurrent callers (never above the
	// host's 2 cores).
	clients int
	// quality is the length of the fixed seed list: ops 0..quality-1
	// solve the same instances in every run, whatever --seed says, and
	// feed cut_mean and the exact-repeat guard.
	quality int
	// open builds the workload's inputs (and, for the daemon, starts
	// it). It is the set-up that setup_s measures.
	open func(o *options) (session, error)
}

var workloads = map[string]workload{
	"mbrim-k256": {clients: 1, quality: 8, open: openMBRIM},
	"spin-k512":  {clients: 1, quality: 4, open: openSpin},
	"daemon-k32": {clients: 2, quality: 8, open: openDaemon},
}

// session is an opened workload.
type session interface {
	// op runs and checks op i on behalf of client c.
	op(c, i int) *opRecord
	// usage reports the CPU, peak RSS and cumulative allocation of the
	// process doing the solves.
	usage() (usage, error)
	// finish ends the session and runs the checks that need every
	// op's result.
	finish(recs []*opRecord, chk *checks)
}

type usage struct {
	cpu        time.Duration
	peakRSSMiB float64
	allocBytes uint64
}

// opRecord is what one op measured and returned.
type opRecord struct {
	index   int
	quality bool
	lat     time.Duration
	err     error
	// solves is the number of solves the op made; cut, flips and
	// traffic sum over them.
	solves  int
	cut     float64
	flips   float64
	traffic float64
	// Daemon ops only: the outcome's energy and spins (fixed-seed ones
	// are compared with a detached solve), the SSE events received, the
	// run's final status ledger and the per-request phases.
	energy    float64
	spins     []int8
	events    int64
	dropped   int64
	queueWait time.Duration
	wallNS    int64
	phases    phases
}

type phases struct {
	submit, stream, diag, outcome, metrics time.Duration
}

// problem is one MaxCut instance on a complete ±1 graph with its Ising
// model (J = −w, no biases).
type problem struct {
	g *graph.Graph
	m *ising.Model
	w float64
}

func newProblem(k int, graphSeed uint64) *problem {
	g := graph.Complete(k, rng.New(graphSeed))
	return &problem{g: g, m: g.ToIsing(), w: g.TotalWeight()}
}

// check verifies a solve's returned spins against its reported energy
// and cut. The instance has integer weights, so every engine's energy
// (incremental or recomputed) is exact and must match bit for bit.
func (p *problem) check(spins []int8, energy, cut float64) error {
	n := p.m.N()
	if len(spins) != n {
		return fmt.Errorf("%d spins for a %d-spin problem", len(spins), n)
	}
	for i, s := range spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("spin %d is %d", i, s)
		}
	}
	if e := p.m.Energy(spins); math.Float64bits(e) != math.Float64bits(energy) {
		return fmt.Errorf("reported energy %v, spins give %v", energy, e)
	}
	c := 0.0
	for _, e := range p.g.Edges() {
		if spins[e.U] != spins[e.V] {
			c += e.Weight
		}
	}
	if math.Float64bits(c) != math.Float64bits(cut) {
		return fmt.Errorf("reported cut %v, spins give %v", cut, c)
	}
	if (p.w-energy)/2 != c {
		return fmt.Errorf("cut %v does not match energy %v: (W-E)/2 = %v", c, energy, (p.w-energy)/2)
	}
	return nil
}

// canonicalGraphSeed seeds the instance of the fixed seed list.
const canonicalGraphSeed = 1

// splitmix64 is the input-derivation hash: every op's seeds come from
// the run's --seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runGraphSeed is the graph of the ops beyond the fixed seed list.
func runGraphSeed(seed uint64) uint64 { return splitmix64(seed^0x6d627269) | 1 }

// opSeeds returns op i's graph and solve seeds: the fixed list first,
// then seeds derived from the run's --seed.
func opSeeds(runSeed uint64, i, quality int) (graphSeed, solveSeed uint64, fixed bool) {
	if i < quality {
		return canonicalGraphSeed, uint64(i + 1), true
	}
	return runGraphSeed(runSeed), splitmix64(runSeed + uint64(i)), false
}

// closedLoop runs clients callers back to back, numbering ops from
// first, until d has passed and every fixed-seed op is done, and
// returns the records in op order and the wall time from the first
// start to the last completion.
func closedLoop(s session, clients, first, quality int, d time.Duration) ([]*opRecord, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]*opRecord, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= quality && !time.Now().Before(deadline) {
					return
				}
				per[c] = append(per[c], s.op(c, i))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []*opRecord
	for _, rs := range per {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].index < recs[b].index })
	return recs, elapsed
}

// --- detached workloads ------------------------------------------------

// detached solves in this process through core.Solve.
type detached struct {
	quality int
	seed    uint64
	canon   *problem
	inst    *problem
	// requests are the solves of one op, made back to back.
	requests func(p *problem, solveSeed uint64) []core.Request
}

func (d *detached) op(_, i int) *opRecord {
	_, solveSeed, fixed := opSeeds(d.seed, i, d.quality)
	p := d.inst
	if fixed {
		p = d.canon
	}
	rec := &opRecord{index: i, quality: fixed}
	start := time.Now()
	for _, req := range d.requests(p, solveSeed) {
		out, err := core.Solve(req)
		if err == nil {
			err = p.check(out.Spins, out.Energy, out.Cut)
		}
		if err != nil {
			rec.err = fmt.Errorf("op %d (%s seed %d): %w", i, req.Kind, solveSeed, err)
			break
		}
		rec.add(out.Cut, out.Stats)
	}
	rec.lat = time.Since(start)
	return rec
}

// add accounts one checked solve.
func (r *opRecord) add(cut float64, stats map[string]float64) {
	r.solves++
	r.cut += cut
	r.flips += stats["flips"]
	r.traffic += stats["trafficBytes"]
}

func (d *detached) usage() (usage, error) {
	rss, err := peakRSSMiB(0)
	if err != nil {
		return usage{}, err
	}
	return usage{cpu: selfCPU(), peakRSSMiB: rss, allocBytes: totalAlloc()}, nil
}

func (d *detached) finish([]*opRecord, *checks) {}

// mbrimRequest is the paper's machine: concurrent-mode multichip BRIM,
// 4 chips on host goroutines, 100 ns of model time.
func mbrimRequest(p *problem, solveSeed uint64) core.Request {
	return core.Request{Kind: core.MBRIMConcurrent, Model: p.m, Graph: p.g, Seed: solveSeed,
		Chips: 4, DurationNS: 100, Parallel: true}
}

func openMBRIM(o *options) (session, error) {
	return &detached{quality: o.quality, seed: o.seed,
		canon: newProblem(256, canonicalGraphSeed), inst: newProblem(256, runGraphSeed(o.seed)),
		requests: func(p *problem, seed uint64) []core.Request {
			return []core.Request{mbrimRequest(p, seed)}
		}}, nil
}

// The spin-k512 efforts, sized so that each engine's solve costs about
// the same host time on dense K512.
const (
	spinSASweeps   = 2000
	spinDSBMSteps  = 65
	spinTabuSweeps = 24
)

// spinRequests is one spin-k512 op: sa, dsbm and tabu in turn. A whole
// rotation per op keeps the latency distribution single-peaked.
func spinRequests(p *problem, solveSeed uint64) []core.Request {
	base := core.Request{Model: p.m, Graph: p.g, Seed: solveSeed}
	sa, dsbm, tabu := base, base, base
	sa.Kind, sa.Sweeps = core.SA, spinSASweeps
	dsbm.Kind, dsbm.Steps = core.DSBM, spinDSBMSteps
	tabu.Kind, tabu.Sweeps = core.Tabu, spinTabuSweeps
	return []core.Request{sa, dsbm, tabu}
}

func openSpin(o *options) (session, error) {
	return &detached{quality: o.quality, seed: o.seed,
		canon: newProblem(512, canonicalGraphSeed), inst: newProblem(512, runGraphSeed(o.seed)),
		requests: spinRequests}, nil
}
