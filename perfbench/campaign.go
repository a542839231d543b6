package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hafi"
	"repro/internal/journal"
	"repro/internal/progs"
)

// campaignSpec is one campaign workload: a core, a program, a fault model
// and the size of the seeded fault list.
type campaignSpec struct {
	name    string
	cpu     string
	program func() []uint16
	model   hafi.ModelSpec
	// cycles is K: the fault list covers every flip-flop at K cycles drawn
	// from the golden run.
	cycles int
	// journal makes every timed pass append each point through
	// journal.Writer to a file in the checkout.
	journal bool
	// sample is the number of points re-run on the scalar oracle per run
	// for seeds other than the default.
	sample int
}

var (
	// campaignAVRSEU is the paper's headline campaign: online MATE pruning
	// on a campaign whose simulated lanes mostly keep the golden run's
	// memory-interface traffic.
	campaignAVRSEU = &campaignSpec{
		name: "campaign-avr-seu", cpu: "avr", program: progs.AVRFib,
		model:  hafi.ModelSpec{Model: hafi.ModelSEU},
		cycles: 40, sample: 48,
	}
	// campaignMSP430Stuck runs the same engine the other way: nothing is
	// prunable, lanes stay divergent, buses are 16 bits wide, hangs form a
	// straggler tail, and every point is journaled.
	campaignMSP430Stuck = &campaignSpec{
		name: "campaign-msp430-stuck", cpu: "msp430", program: progs.MSP430Conv,
		model:   hafi.ModelSpec{Model: hafi.ModelStuckAt, Window: 50, StuckHigh: true},
		cycles:  32,
		journal: true, sample: 16,
	}
)

func init() {
	for _, cs := range []*campaignSpec{campaignAVRSEU, campaignMSP430Stuck} {
		register(&workload{name: cs.name, spec: cs, run: cs.run})
	}
}

// campaignSetupReps is how often set-up is repeated; setup_s is the median.
// The first repetitions of a process run slower than the rest, so
// the median needs many of them (about 0.2 s in all) to hold steady.
const campaignSetupReps = 100

// pass is one complete campaign: golden run, MATE search, fault list and
// the pooled batched campaign, each timed.
type pass struct {
	wall, cpu                                   time.Duration
	golden, search, faultlist, open, exec, shut time.Duration
	// id identifies the campaign: golden halt cycle and signature plus the
	// fault-list hash.
	id      [3]uint64
	npoints int
	mates   int
	res     *hafi.CampaignResult
	// mallocs and allocBytes are the campaign call's heap allocations
	// (recorded only when asked: reading them stops the world).
	mallocs, allocBytes uint64
	// g and points are kept only for the pass whose verdicts are the
	// run's reference; the others drop them so memory does not grow with
	// the number of passes.
	g      *hafi.Golden
	points []hafi.FaultPoint
}

// runPass runs one campaign. tr, when non-nil, traces it; jpath, when set,
// journals every point there; validate re-executes pruned points.
func (cs *campaignSpec) runPass(t *target, seed int64, tr *tracer, jpath string, validate, memstats bool) (*pass, error) {
	p := &pass{}
	reg := tr.registry()
	var err error
	var sres *core.SearchResult
	u0 := readUsage()
	start := time.Now()
	p.golden = tr.span("bench/hafi.golden", func() {
		var rw hafi.RunW
		if rw, err = t.newRunW(); err == nil {
			p.g, err = hafi.RecordGoldenW(rw, maxGoldenCycles)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	p.search = tr.span("bench/core.search", func() {
		params := core.DefaultSearchParams()
		params.Workers = Workers
		params.Obs = reg
		sres = core.Search(t.nl, t.nl.FFQWires(), params)
	})
	p.faultlist = tr.span("bench/hafi.faultlist", func() {
		p.points, err = buildFaultList(t.nl, cs.model, p.g.HaltCycle, cs.cycles, seed)
	})
	if err != nil {
		return nil, err
	}
	var jw *journal.Writer
	if jpath != "" {
		p.open = tr.span("bench/journal.create", func() {
			hdr := journal.Header{
				GoldenSignature: p.g.Signature,
				NumPoints:       uint64(len(p.points)),
				FaultListHash:   hafi.FaultListHash(p.points),
			}
			if jw, err = journal.Create(jpath, hdr); err == nil {
				jw.Instrument(reg)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	p.exec = tr.span("bench/hafi.campaign", func() {
		ctl := hafi.NewControllerPool(t.newRun, p.g)
		p.res, err = ctl.RunCampaignBatchedPoolW(hafi.CampaignConfig{
			Points:          p.points,
			MATESet:         sres.Set,
			ValidateSkipped: validate,
			Journal:         jw,
			Obs:             reg,
			Workers:         Workers,
		}, t.newRunW)
	})
	if memstats {
		runtime.ReadMemStats(&ms1)
		p.mallocs, p.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	if jw != nil {
		var cerr error
		p.shut = tr.span("bench/journal.close", func() { cerr = jw.Close() })
		if err == nil && cerr != nil {
			err = fmt.Errorf("journal close: %w", cerr)
		}
	}
	p.wall = time.Since(start)
	p.cpu = readUsage().cpu - u0.cpu
	if err != nil {
		return nil, err
	}
	p.id = [3]uint64{uint64(p.g.HaltCycle), p.g.Signature, hafi.FaultListHash(p.points)}
	p.npoints = len(p.points)
	p.mates = sres.Set.Size()
	return p, nil
}

// countMismatch is a lower bound on the points whose verdict differs
// between two results of the same campaign: the distance between their
// pruned and per-outcome counts.
func countMismatch(a, b *hafi.CampaignResult) int64 {
	abs := func(x int) int64 {
		if x < 0 {
			return int64(-x)
		}
		return int64(x)
	}
	n := abs(a.Total-b.Total) + abs(a.Skipped-b.Skipped)
	for o := hafi.OutcomeBenign; o <= hafi.OutcomeHarnessError; o++ {
		n += abs(a.ByOutcome[o] - b.ByOutcome[o])
	}
	return n
}

// measured is everything one run of a campaign workload observed.
type measured struct {
	t      *target
	setups []float64
	// ref is the pass whose journaled verdicts (want) every other pass and
	// the scalar oracle are checked against; pruned lists the points it
	// pruned.
	ref    *pass
	want   []byte
	pruned []int
	reps   []*pass
	traced []bool
	peak   int64
	// attempted and failed count points classified and points whose
	// verdict was wrong or missing.
	attempted, failed int64
	tr                *tracer
}

// measure sets up the workload, then repeats the campaign for the timed
// phase (alternating untraced and traced passes when tr is set).
func (cs *campaignSpec) measure(opts options, tr *tracer) (*measured, error) {
	m := &measured{tr: tr}
	for i := 0; i < campaignSetupReps; i++ {
		runtime.GC()
		start := time.Now()
		t, err := newTarget(cs.cpu, cs.program)
		if err != nil {
			return nil, err
		}
		if _, err := t.newRunW(); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.t = t
	}

	// The timed passes of a workload without a journal keep no per-point
	// record; an untimed journaled pass after the timed phase supplies
	// their reference verdicts, with every pruned point re-executed to
	// validate the pruning.
	jpath := ""
	if cs.journal {
		jpath = filepath.Join(opts.tmpDir, "timed.journal")
	}
	start := time.Now()
	for i := 0; morePasses(len(m.reps), tr, start, opts.seconds); i++ {
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
			tr.setRep(i)
		}
		freeHeap()
		p, err := cs.runPass(m.t, opts.seed, rt, jpath, false, tr != nil && rt == nil)
		tr.setRep(-1)
		if err != nil {
			return nil, err
		}
		printPass(opts.stdout, i, rt != nil, int64(p.npoints), p.wall, p.cpu)
		if jpath != "" && m.ref == nil {
			if err := m.setReference(p, jpath); err != nil {
				return nil, err
			}
		} else {
			if jpath != "" {
				m.failed += m.checkPass(p, jpath)
			}
			p.g, p.points = nil, nil
		}
		m.reps = append(m.reps, p)
		m.traced = append(m.traced, rt != nil)
		m.attempted += int64(p.npoints)
	}
	// Read before the verification pass, which runs another configuration:
	// the peak covers the timed passes only.
	m.peak = readUsage().maxRS

	if jpath == "" {
		vpath := filepath.Join(opts.tmpDir, "verify.journal")
		freeHeap()
		vp, err := cs.runPass(m.t, opts.seed, nil, vpath, true, false)
		if err != nil {
			return nil, fmt.Errorf("verification pass: %w", err)
		}
		if err := m.setReference(vp, vpath); err != nil {
			return nil, err
		}
		m.attempted += int64(vp.npoints)
		for _, p := range m.reps {
			m.failed += m.checkPass(p, "")
		}
	}
	return m, nil
}

// setReference makes p, journaled at path, the run's reference pass.
func (m *measured) setReference(p *pass, path string) error {
	var err error
	if m.want, m.pruned, err = journalVerdicts(path, p.npoints); err != nil {
		return err
	}
	m.ref = p
	m.failed += mismatches(m.want, nil)
	return nil
}

// checkPass compares a timed pass with the reference pass: per point when
// it was journaled, by outcome counts otherwise.
func (m *measured) checkPass(p *pass, jpath string) int64 {
	if p.id != m.ref.id {
		return int64(p.npoints)
	}
	if jpath == "" {
		return countMismatch(p.res, m.ref.res)
	}
	got, _, err := journalVerdicts(jpath, p.npoints)
	if err != nil {
		return int64(p.npoints)
	}
	return mismatches(got, m.want)
}

// referenceVerdicts returns the scalar-oracle verdicts the run is checked
// against. For the default seed they are the pinned reference, one per
// point (idx nil); otherwise a seeded sample of points, listed in idx, is
// re-run on the oracle.
func (cs *campaignSpec) referenceVerdicts(m *measured, opts options) (idx []int, ref []byte, err error) {
	if opts.seed == DefaultSeed {
		ref, err = loadReference(cs.name, len(m.want))
		return nil, ref, err
	}
	idx = samplePoints(opts.seed, len(m.want), m.pruned, cs.sample)
	pts := make([]hafi.FaultPoint, len(idx))
	for k, i := range idx {
		pts[k] = m.ref.points[i]
	}
	og, ref, err := oracleVerdicts(m.t, pts, opts.tmpDir)
	if err != nil {
		return nil, nil, err
	}
	if og.HaltCycle != m.ref.g.HaltCycle || og.Signature != m.ref.g.Signature {
		// A different golden run makes every compared verdict suspect.
		for k := range ref {
			ref[k] = vMissing
		}
	}
	return idx, ref, nil
}

// wrongVerdicts counts the checked points whose verdict differs from the
// reference (idx nil: every point).
func wrongVerdicts(want []byte, idx []int, ref []byte) int64 {
	if idx == nil {
		return mismatches(want, ref)
	}
	got := make([]byte, len(idx))
	for k, i := range idx {
		got[k] = want[i]
	}
	return mismatches(got, ref)
}

func (cs *campaignSpec) run(opts options) (*result, error) {
	var tr *tracer
	if opts.trace {
		var err error
		if tr, err = newTracer(opts.traceOut); err != nil {
			return nil, err
		}
	}
	m, err := cs.measure(opts, tr)
	if err != nil {
		tr.close()
		return nil, err
	}
	var metrics map[string]metric
	if tr != nil {
		metrics, err = cs.layerMetrics(m, opts)
		if cerr := tr.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.stdout, "# trace written to %s (open it at ui.perfetto.dev)\n", tr.path)
	} else {
		metrics = cs.endToEndMetrics(m)
	}
	idx, ref, err := cs.referenceVerdicts(m, opts)
	if err != nil {
		return nil, fmt.Errorf("verdict reference: %w", err)
	}
	vr := m.ref.res
	fmt.Fprintf(opts.stdout, "# %s: %d points (%d cycles x %d sites), pruned %d, executed %d, benign %d, sdc %d, hang %d, %d timed passes\n",
		cs.name, vr.Total, cs.cycles, vr.Total/cs.cycles, vr.Skipped, vr.Executed,
		vr.ByOutcome[hafi.OutcomeBenign], vr.ByOutcome[hafi.OutcomeSDC], vr.ByOutcome[hafi.OutcomeHang], len(m.reps))
	return m.result(metrics, wrongVerdicts(m.want, idx, ref)), nil
}

// result assembles the run's result line; wrong is the number of verdicts
// the scalar-oracle reference disagrees with.
func (m *measured) result(metrics map[string]metric, wrong int64) *result {
	failed := m.failed + wrong
	return &result{Correct: failed == 0, Attempted: m.attempted, Failed: failed, Metrics: metrics}
}

// endToEndMetrics are the untraced run's user-visible numbers: medians
// over the timed passes.
func (cs *campaignSpec) endToEndMetrics(m *measured) map[string]metric {
	var pps, cpu []float64
	for _, p := range m.reps {
		pps = append(pps, float64(p.npoints)/p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
	}
	vr := m.ref.res
	return map[string]metric{
		"setup_s":       {median(m.setups), "s"},
		"points_per_s":  {median(pps), "points/s"},
		"cpu_s":         {median(cpu), "CPU-s"},
		"peak_rss_mb":   {float64(m.peak) / 1e6, "MB"},
		"unpruned_frac": {1 - float64(vr.Skipped)/float64(vr.Total), "ratio"},
	}
}
