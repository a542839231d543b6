package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/exact"
	"repro/internal/netlist"
	"repro/internal/progs"
	"repro/internal/prune"
	"repro/internal/sim"
)

func init() {
	register(&workload{name: "analysis-mates", run: runAnalysis})
}

const (
	// analysisSetupReps is how often set-up (synthesis, assembly, trace
	// recording) is repeated; setup_s is the median.
	analysisSetupReps = 3
	// analysisTopN is the paper's MATE selection size.
	analysisTopN = 50
	// analysisNodeBudget is the BDD node budget of the exact verification
	// (the budget the tier-1 tests use; the default takes over a minute on
	// the AVR core).
	analysisNodeBudget = 1 << 14
	// analysisSample is the number of MATE-masked (wire, cycle) points per
	// evaluation re-checked with the exact single-cycle masking oracle.
	analysisSample = 100
)

// analysisCPU is one core with the fib and conv traces of the paper's
// offline pruning pipeline.
type analysisCPU struct {
	name      string
	nl        *netlist.Netlist
	wires     []netlist.WireID
	fib, conv *sim.Trace
}

func newAnalysisCPU(name string) (*analysisCPU, error) {
	switch name {
	case "avr":
		c := avr.NewCore()
		return &analysisCPU{
			name: name, nl: c.NL, wires: c.NL.FFQWires(),
			fib:  avr.NewSystem(c, progs.AVRFib()).Record(progs.TraceCycles),
			conv: avr.NewSystem(c, progs.AVRConv()).Record(progs.TraceCycles),
		}, nil
	case "msp430":
		c := msp430.NewCore()
		return &analysisCPU{
			name: name, nl: c.NL, wires: c.NL.FFQWires(),
			fib:  msp430.NewSystem(c, progs.MSP430Fib()).Record(progs.TraceCycles),
			conv: msp430.NewSystem(c, progs.MSP430Conv()).Record(progs.TraceCycles),
		}, nil
	}
	return nil, fmt.Errorf("unknown cpu %q", name)
}

// evaluation is one prune.Evaluate call of a pass.
type evaluation struct {
	cpu      *analysisCPU
	set      *core.MATESet
	tr       *sim.Trace
	res      *prune.Result
	complete bool // the complete MATE set (not the top-N selection)
}

// analysisPass is one run of the offline pipeline over both cores.
type analysisPass struct {
	wall, cpu                        time.Duration
	search, evaluate, selectT, check time.Duration
	evals                            []evaluation
	mates                            int
	verify                           []*exact.VerifyResult
	points                           int64
}

// summary condenses a pass's deterministic results; every pass of a run
// must produce the same one.
func (p *analysisPass) summary() string {
	s := fmt.Sprintf("mates=%d", p.mates)
	for _, e := range p.evals {
		s += fmt.Sprintf(" %s:%d/%d", e.cpu.name, e.res.MaskedPoints, e.res.TotalPoints)
	}
	for _, vr := range p.verify {
		s += fmt.Sprintf(" proved=%d/%d unproven=%d", vr.PairsProved, vr.PairsChecked, len(vr.Unproven))
	}
	return s
}

func runAnalysisPass(cpus []*analysisCPU, tr *tracer) *analysisPass {
	p := &analysisPass{}
	reg := tr.registry()
	ctx := context.Background()
	u0 := readUsage()
	start := time.Now()
	for _, c := range cpus {
		var sres *core.SearchResult
		p.search += tr.span("bench/core.search", func() {
			params := core.DefaultSearchParams()
			params.Workers = Workers
			params.Obs = reg
			sres = core.Search(c.nl, c.wires, params)
		})
		set := sres.Set
		p.mates += set.Size()
		evaluate := func(set *core.MATESet, trace *sim.Trace, complete bool) {
			var res *prune.Result
			p.evaluate += tr.span("bench/prune.evaluate", func() {
				res = prune.EvaluateInstrumented(ctx, set, trace, c.wires, reg)
			})
			p.points += res.TotalPoints
			p.evals = append(p.evals, evaluation{cpu: c, set: set, tr: trace, res: res, complete: complete})
		}
		evaluate(set, c.fib, true)
		evaluate(set, c.conv, true)
		var top *core.MATESet
		p.selectT += tr.span("bench/prune.select", func() {
			top = prune.SelectTopN(set, c.fib, c.wires, analysisTopN)
		})
		// Cross-check: the MATEs selected on fib, evaluated on conv.
		evaluate(top, c.conv, false)
		var vr *exact.VerifyResult
		p.check += tr.span("bench/exact.verify", func() {
			vr = exact.VerifyMATESet(c.nl, set, exact.Options{NodeBudget: analysisNodeBudget, Workers: Workers, Obs: reg})
		})
		p.verify = append(p.verify, vr)
	}
	p.wall = time.Since(start)
	p.cpu = readUsage().cpu - u0.cpu
	return p
}

// prunedFrac is the complete-set fault-space reduction of a pass (the
// paper's Table 2/3 number, summed over both cores and both traces).
func (p *analysisPass) prunedFrac() float64 {
	var masked, total int64
	for _, e := range p.evals {
		if e.complete {
			masked += e.res.MaskedPoints
			total += e.res.TotalPoints
		}
	}
	return float64(masked) / float64(total)
}

// checkAnalysis re-derives every evaluation's masked points with
// prune.MaskedGrid and re-checks a seeded sample of them with the exact
// single-cycle masking oracle. It returns the number of wrong points.
func checkAnalysis(p *analysisPass, seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	var bad int64
	for _, e := range p.evals {
		grid := prune.MaskedGrid(e.set, e.tr, e.cpu.wires)
		var masked [][2]int
		for cyc, row := range grid {
			for wi, m := range row {
				if m {
					masked = append(masked, [2]int{cyc, wi})
				}
			}
		}
		if d := int64(len(masked)) - e.res.MaskedPoints; d != 0 {
			if d < 0 {
				d = -d
			}
			bad += d
		}
		oracle := core.NewOracle(e.cpu.nl)
		cones := map[int]*core.Cone{}
		for k := 0; k < analysisSample && len(masked) > 0; k++ {
			pt := masked[rng.Intn(len(masked))]
			cone, ok := cones[pt[1]]
			if !ok {
				cone = core.ComputeCone(e.cpu.nl, e.cpu.wires[pt[1]])
				cones[pt[1]] = cone
			}
			if !oracle.MaskedExactTrace(cone, e.tr, pt[0]) {
				bad++
			}
		}
	}
	for _, vr := range p.verify {
		bad += int64(len(vr.Violations) + len(vr.BadCertificates))
	}
	return bad
}

func runAnalysis(opts options) (*result, error) {
	var cpus []*analysisCPU
	var setups []float64
	for i := 0; i < analysisSetupReps; i++ {
		runtime.GC()
		start := time.Now()
		var cs []*analysisCPU
		for _, name := range []string{"avr", "msp430"} {
			c, err := newAnalysisCPU(name)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		setups = append(setups, time.Since(start).Seconds())
		cpus = cs
	}

	var tr *tracer
	if opts.trace {
		var err error
		if tr, err = newTracer(opts.traceOut); err != nil {
			return nil, err
		}
	}
	var passes []*analysisPass
	var traced []bool
	var attempted, failed int64
	var want string // the first pass's summary
	start := time.Now()
	for i := 0; morePasses(len(passes), tr, start, opts.seconds); i++ {
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
			tr.setRep(i)
		}
		freeHeap()
		p := runAnalysisPass(cpus, rt)
		tr.setRep(-1)
		printPass(opts.stdout, i, rt != nil, p.points, p.wall, p.cpu)
		attempted += p.points
		if len(passes) == 0 {
			want = p.summary()
		} else if p.summary() != want {
			failed += p.points
		}
		if len(passes) > 0 {
			// Only the final pass keeps its results, for the checks below,
			// so memory does not grow with the number of passes.
			prev := passes[len(passes)-1]
			prev.evals, prev.verify = nil, nil
		}
		passes = append(passes, p)
		traced = append(traced, rt != nil)
	}
	peak := readUsage().maxRS
	last := passes[len(passes)-1]
	failed += checkAnalysis(last, opts.seed)
	fmt.Fprintf(opts.stdout, "# analysis-mates: %s, complete-set reduction %.4f, %d timed passes\n",
		last.summary(), last.prunedFrac(), len(passes))

	var metrics map[string]metric
	if tr == nil {
		var pps, cpu []float64
		for _, p := range passes {
			pps = append(pps, float64(p.points)/p.wall.Seconds())
			cpu = append(cpu, p.cpu.Seconds())
		}
		metrics = map[string]metric{
			"setup_s":       {median(setups), "s"},
			"points_per_s":  {median(pps), "points/s"},
			"cpu_s":         {median(cpu), "CPU-s"},
			"peak_rss_mb":   {float64(peak) / 1e6, "MB"},
			"unpruned_frac": {1 - last.prunedFrac(), "ratio"},
		}
	} else {
		var err error
		metrics, err = analysisLayerMetrics(passes, traced, tr, opts)
		if cerr := tr.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.stdout, "# trace written to %s (open it at ui.perfetto.dev)\n", tr.path)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func analysisLayerMetrics(passes []*analysisPass, traced []bool, tr *tracer, opts options) (map[string]metric, error) {
	var plainPPS, tracedPPS, search, evaluate, selectT, check []float64
	var timed, coreSelf, pruneSelf, exactSelf time.Duration
	n := 0
	for i, p := range passes {
		pps := float64(p.points) / p.wall.Seconds()
		if !traced[i] {
			plainPPS = append(plainPPS, pps)
			continue
		}
		n++
		tracedPPS = append(tracedPPS, pps)
		search = append(search, p.search.Seconds())
		evaluate = append(evaluate, p.evaluate.Seconds())
		selectT = append(selectT, p.selectT.Seconds())
		check = append(check, p.check.Seconds())
		timed += p.wall
		coreSelf += p.search
		pruneSelf += p.evaluate + p.selectT
		exactSelf += p.check
	}
	if n == 0 {
		return nil, fmt.Errorf("no traced pass ran")
	}
	per := func(name string) float64 { return float64(tr.counter(name)) / float64(n) }
	v := map[string]float64{
		"core.search_s":           median(search),
		"core.mates":              float64(passes[0].mates),
		"core.paths":              per("search_paths_total"),
		"core.candidates":         per("search_candidates_total"),
		"core.unmaskable":         per("search_unmaskable_total"),
		"prune.evaluate_s":        median(evaluate),
		"prune.select_s":          median(selectT),
		"obs.trace_overhead_frac": traceOverhead(plainPPS, tracedPPS),
	}
	// Counts come from the final pass, the only one that keeps its
	// results; every pass produced the same ones.
	final := passes[len(passes)-1]
	for _, e := range final.evals {
		v["prune.points"] += float64(e.res.TotalPoints)
		v["prune.masked_points"] += float64(e.res.MaskedPoints)
	}
	v["exact.verify_s"] = median(check)
	for _, vr := range final.verify {
		v["exact.pairs_checked"] += float64(vr.PairsChecked)
		v["exact.pairs_proved"] += float64(vr.PairsProved)
		v["exact.unproven_wires"] += float64(len(vr.Unproven))
		v["exact.bdd_nodes"] += float64(vr.BDDNodes)
	}
	printLayerShares(opts.stdout, "analysis-mates", timed, []layerShare{
		{"core", coreSelf}, {"prune", pruneSelf}, {"exact", exactSelf},
	})
	return perLayer(v)
}
