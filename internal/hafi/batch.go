package hafi

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/journal"
)

// DefaultCampaignLanes is the lane count the campaign front-ends default
// to: width 4 (256 lanes), the widest kernel with a hand-unrolled dense
// dispatch. Every width that is a multiple of 64 is supported, and the
// journals are byte-identical across widths.
const DefaultCampaignLanes = 256

// stragglerMaxLive is the live-lane count at or below which a batch hands
// its remaining lanes to the straggler pool (when the device supports
// SuspendRunW): once no future injection or golden-relative convergence
// check is possible, the only thing left is running each survivor to its
// halt or timeout, and a handful of hang candidates should not drag a
// whole batch through thousands of near-empty simulation cycles. One lane
// group is the natural boundary — below it the device cannot shrink any
// further.
const stragglerMaxLive = 64

// stragglerMinTail is the minimum remaining cycle count that justifies
// suspending a lane: below it, finishing inline is cheaper than the
// export/import round trip.
const stragglerMinTail = 1024

// RunCampaignBatched executes the campaign on a pool of batched devices —
// the paper's "one FI controller distributes the FI campaign over several
// FPGAs", with each device playing one FPGA. newRun builds one device of
// the netlist and workload the golden reference was recorded from; the
// pool holds cfg.Workers of them (at least one, at most one per batch),
// and all must have the same lane count. Injection points that share a
// cycle are grouped into batches of up to Lanes() points, which run as
// lanes of one bit-parallel simulation. Semantically identical to
// RunCampaign (same outcome for every point); typically orders of
// magnitude faster. MATE pruning is applied before batching, exactly like
// the sequential controller. ValidateSkipped re-executes pruned points
// batched as well.
//
// Lanes retire individually through the convergence early-exit (see
// Controller.execute): a lane whose flip-flop state and memory write
// digest re-converge with the golden reference after its hold window is
// classified benign immediately, and the batch ends as soon as every lane
// has halted or retired. CampaignConfig.DisableEarlyExit restores full
// runs.
//
// The batch plan is deterministic, batches are dispatched to the devices
// in plan order, and results are emitted through a reorder buffer in plan
// order from a single goroutine — so the journal is byte-identical for
// every worker count and lane width. Recovered journal records are
// replayed instead of re-executed, and every newly classified point is
// journaled as its batch completes. On cancellation, dispatch stops;
// in-flight batches finish and are emitted, so the journal still covers a
// contiguous plan prefix. A panicking batch is retried lane by lane so
// only the offending point is classified OutcomeHarnessError.
func (c *Controller) RunCampaignBatched(cfg CampaignConfig, newRun func() (RunW, error)) (*CampaignResult, error) {
	timeout, err := c.prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	ctx := cfg.context()
	sp := cfg.Obs.StartSpan("campaign")
	defer sp.End()
	met := newCampaignMetrics(cfg.Obs, len(cfg.Points))
	st := newBatchState(&cfg, met)

	nw := cfg.Workers
	if nw < 1 {
		nw = 1
	}
	// The batch plan depends on the device lane count, so one device must
	// exist before planning; the rest of the pool is built after the plan
	// fixes the worker count.
	first, err := newRun()
	if err != nil {
		return nil, fmt.Errorf("hafi: pool worker 0: %w", err)
	}
	runs := append(make([]RunW, 0, nw), first)
	lanes := first.Lanes()
	met.setLanes(lanes)

	specs, err := c.classifyPoints(&cfg, st, lanes)
	if err != nil {
		return nil, err
	}

	if nw > len(specs) {
		nw = max(len(specs), 1)
	}
	for len(runs) < nw {
		r, err := newRun()
		if err != nil {
			return nil, fmt.Errorf("hafi: pool worker %d: %w", len(runs), err)
		}
		if r.Lanes() != lanes {
			return nil, fmt.Errorf("hafi: pool device %d has %d lanes, pool runs at %d", len(runs), r.Lanes(), lanes)
		}
		runs = append(runs, r)
	}
	met.setWorkers(nw)

	// batchDone carries one completed batch back to the emitter. outcomes
	// aliases a pooled buffer (buf) returned to outPool after emission.
	type batchDone struct {
		spec     int
		conv     int
		saved    int64
		outcomes []Outcome
		buf      *[]Outcome
		err      error
	}
	work := make(chan int)
	results := make(chan batchDone, nw)
	outPool := sync.Pool{New: func() interface{} {
		s := make([]Outcome, 0, lanes)
		return &s
	}}

	// Dispatcher: batch indices strictly in plan order, stopping (never
	// mid-batch) once the campaign context is cancelled.
	go func() {
		defer close(work)
		for si := range specs {
			if ctx.Err() != nil {
				return
			}
			select {
			case work <- si:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(run RunW) {
			defer wg.Done()
			var scratch batchScratch
			// Straggler-bearing batches are held back (the emitter's reorder
			// buffer absorbs the gap) and resolved together on this worker's
			// device once the plan drains; spec/item of a pool worker's
			// suspLane index heldDone, not the plan.
			var (
				heldDone    []batchDone
				heldWaiting []int
				susp        []suspLane
			)
			for si := range work {
				d := batchDone{spec: si}
				nsusp := 0
				// Worker-level backstop: panics are already isolated per
				// batch and per lane inside runSpec, so anything reaching
				// here is a harness bug — surface it as an error instead of
				// crashing the campaign.
				func() {
					defer func() {
						if r := recover(); r != nil {
							d.err = fmt.Errorf("hafi: pool worker panicked: %v", r)
						}
					}()
					met.workerBusy(1)
					defer met.workerBusy(-1)
					var out []Outcome
					d.conv, d.saved, out = c.runSpec(&cfg, run, specs[si], timeout, met, &scratch)
					// The scratch is reused for the next batch; the emitter
					// needs a stable copy. The copy's backing array cycles
					// through outPool instead of being reallocated per batch.
					d.buf = outPool.Get().(*[]Outcome)
					d.outcomes = append((*d.buf)[:0], out...)
					nsusp = len(scratch.susp)
				}()
				if d.err == nil && nsusp > 0 {
					for _, s := range scratch.susp {
						s.spec = len(heldDone)
						susp = append(susp, s)
					}
					heldDone = append(heldDone, d)
					heldWaiting = append(heldWaiting, nsusp)
					continue
				}
				results <- d
			}
			if len(susp) > 0 {
				met.workerBusy(1)
				c.resolveStragglers(&cfg, run, timeout, susp, func(hi, item int, o Outcome) {
					heldDone[hi].outcomes[item] = o
					heldWaiting[hi]--
				}, &scratch)
				met.workerBusy(-1)
			}
			for hi, d := range heldDone {
				if heldWaiting[hi] > 0 {
					// Cancelled mid-resolution: the batch has unclassified
					// lanes, so it must not reach the journal. The emitter
					// stops releasing at the first missing spec, keeping the
					// journal a contiguous plan prefix.
					*d.buf = d.outcomes[:0]
					outPool.Put(d.buf)
					continue
				}
				results <- d
			}
		}(runs[w])
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Emitter: reorder buffer releasing the contiguous prefix in plan
	// order. After an emission error the drain continues (workers must not
	// block) but nothing further is journaled.
	pending := make(map[int]batchDone)
	next := 0
	var firstErr error
	for d := range results {
		pending[d.spec] = d
		for {
			dd, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr == nil && dd.err != nil {
				firstErr = dd.err
			}
			if firstErr == nil {
				st.res.Converged += dd.conv
				st.res.CyclesSaved += dd.saved
				if err := st.emitSpec(specs[dd.spec], dd.outcomes); err != nil {
					firstErr = err
				}
			}
			if dd.buf != nil {
				*dd.buf = dd.outcomes[:0]
				outPool.Put(dd.buf)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	st.res.Interrupted = ctx.Err() != nil
	return st.res, nil
}

// RunCampaignBatchedPoolW is RunCampaignBatched under its earlier name.
// The benchmark harness in perfbench/ is built unchanged against this tree
// and against trees from before the engines were merged, so it calls the
// name both share.
func (c *Controller) RunCampaignBatchedPoolW(cfg CampaignConfig, factory func() (RunW, error)) (*CampaignResult, error) {
	return c.RunCampaignBatched(cfg, factory)
}

// batchState bundles the result accumulation and journal emission of the
// batched engine. All methods must be called from a single goroutine (the
// engine funnels completed batches through its reorder buffer for exactly
// this reason).
type batchState struct {
	cfg  *CampaignConfig
	met  *campaignMetrics
	res  *CampaignResult
	prog *progressCounter
}

func newBatchState(cfg *CampaignConfig, met *campaignMetrics) *batchState {
	return &batchState{cfg: cfg, met: met, res: newCampaignResult(), prog: newProgress(cfg.Progress)}
}

// journalPoint logs one classified point; a non-nil hit (attribution of a
// pruned point) lands immediately before the experiment record so a crash
// between the two leaves an orphan hit, never an unattributed pruned
// point.
func (st *batchState) journalPoint(rec journal.Record, hit *journal.MATEHit) error {
	if st.cfg.Journal != nil {
		if hit != nil {
			if err := st.cfg.Journal.AppendMATEHit(*hit); err != nil {
				return err
			}
		}
		if err := st.cfg.Journal.Append(rec); err != nil {
			return err
		}
	}
	st.met.point(rec)
	st.prog.bump()
	return nil
}

func record(idx uint64, p FaultPoint) journal.Record {
	return pointRecord(idx, p)
}

// credit accounts one pruned point to its MATE and builds the journal
// attribution record.
func (st *batchState) credit(idx uint64, p FaultPoint, mate int) *journal.MATEHit {
	st.res.Skipped++
	st.res.PrunedByMATE[mate]++
	width := len(st.cfg.MATESet.MATEs[mate].Literals)
	st.met.matePruned(mate, width)
	return &journal.MATEHit{Index: idx, FF: uint32(p.FF), MATE: uint32(mate), Width: uint16(width)}
}

// emitSpec folds one completed batch into the result and journal, lane by
// lane in batch order.
func (st *batchState) emitSpec(spec batchSpec, outcomes []Outcome) error {
	for j, it := range spec.items {
		o := outcomes[j]
		st.res.Total++
		rec := record(it.idx, it.p)
		var hit *journal.MATEHit
		if spec.validate {
			hit = st.credit(it.idx, it.p, it.mate)
			rec.Pruned = true
			if o != OutcomeBenign {
				st.res.SkippedWrong++
				rec.SkippedWrong = true
			}
		} else {
			st.res.Executed++
			st.res.ByOutcome[o]++
			rec.Outcome = uint8(o)
		}
		if err := st.journalPoint(rec, hit); err != nil {
			return err
		}
	}
	return nil
}

// classifyPoints performs the pre-batch classification pass in fault-list
// order: resumed points replay, pruned points settle immediately (final
// unless they still need validation), and everything else lands in the
// deterministic batch plan. The returned specs are the to-run batches
// followed by the to-validate batches, each grouped by injection cycle
// into ≤lanes-lane batches — identical for every worker count.
func (c *Controller) classifyPoints(cfg *CampaignConfig, st *batchState, lanes int) ([]batchSpec, error) {
	var toRun, toValidate []batchItem
	for i, p := range cfg.Points {
		idx := uint64(i)
		if cfg.Resume != nil {
			if rec, ok := cfg.Resume.ByIndex[idx]; ok {
				st.res.replay(rec, replayHit(cfg.Resume, idx))
				st.met.replay()
				continue
			}
		}
		if cfg.MATESet != nil {
			if mate, ok := c.provedBenign(p); ok {
				if cfg.ValidateSkipped {
					toValidate = append(toValidate, batchItem{idx, p, mate})
					continue
				}
				st.res.Total++
				hit := st.credit(idx, p, mate)
				rec := record(idx, p)
				rec.Pruned = true
				if err := st.journalPoint(rec, hit); err != nil {
					return nil, err
				}
				continue
			}
		}
		toRun = append(toRun, batchItem{idx, p, -1})
	}
	return append(planBatches(toRun, false, lanes), planBatches(toValidate, true, lanes)...), nil
}

// batchItem carries a fault point together with its global fault-list
// index (the journal key) and, for validated-skipped points, the set index
// of the crediting MATE (-1 for executed points).
type batchItem struct {
	idx  uint64
	p    FaultPoint
	mate int
}

// batchSpec is one planned ≤lanes-lane batch: same-cycle items in the
// deterministic plan order shared by every worker.
type batchSpec struct {
	items    []batchItem
	cycle    int
	validate bool
}

// planBatches groups items by injection cycle into ≤lanes-lane batches.
// The grouping (stable sort by cycle, greedy fill) is deterministic, so
// every worker count produces the same plan — the basis of their
// byte-identical journals. Since records are emitted per point in
// item order and the sort is stable, the journal byte stream is also
// identical across lane counts: wider devices only change how many
// consecutive plan items share one simulation.
func planBatches(items []batchItem, validate bool, lanes int) []batchSpec {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return items[idx[a]].p.Cycle < items[idx[b]].p.Cycle })
	var specs []batchSpec
	for lo := 0; lo < len(idx); {
		cycle := items[idx[lo]].p.Cycle
		hi := lo
		for hi < len(idx) && hi-lo < lanes && items[idx[hi]].p.Cycle == cycle {
			hi++
		}
		spec := batchSpec{cycle: cycle, validate: validate, items: make([]batchItem, 0, hi-lo)}
		for _, ii := range idx[lo:hi] {
			spec.items = append(spec.items, items[ii])
		}
		specs = append(specs, spec)
		lo = hi
	}
	return specs
}

// batchScratch is the per-engine-instance reusable working set of the
// batch loop: one campaign runs thousands of batches, and per-batch slice
// allocations were a measurable share of the campaign's allocation count.
// Sized on first use for the device's lane count.
type batchScratch struct {
	lanes    int
	batch    []FaultPoint
	outcomes []Outcome
	solo     []Outcome
	ffs      []laneFFs
	ends     []int
	laneItem []int
	witness  []int32
	src      []uint16
	used     []uint64
	halted   []uint64
	done     []uint64

	// susp collects the lanes runBatch suspended into the straggler pool
	// (item indices are batch-relative; runSpec's caller rebases them).
	susp []suspLane
}

// suspLane is one suspended experiment: the plan spec and batch item it
// settles, the logical cycle its snapshot was taken at, and the opaque
// target-specific lane state (SuspendRunW.ExportLane).
type suspLane struct {
	spec  int
	item  int
	cyc   int
	state interface{}
}

func (sc *batchScratch) init(lanes int) {
	if sc.lanes == lanes {
		return
	}
	groups := lanes / 64
	sc.lanes = lanes
	sc.batch = make([]FaultPoint, lanes)
	sc.outcomes = make([]Outcome, lanes)
	sc.solo = make([]Outcome, 1)
	sc.ffs = make([]laneFFs, lanes)
	sc.ends = make([]int, lanes)
	sc.laneItem = make([]int, lanes)
	sc.witness = make([]int32, lanes)
	sc.src = make([]uint16, lanes)
	sc.used = make([]uint64, groups)
	sc.halted = make([]uint64, groups)
	sc.done = make([]uint64, groups)
}

// runSpec executes one planned batch (with panic isolation and lane-by-lane
// retry) and returns the convergence statistics plus the per-lane outcomes,
// which alias the scratch and are only valid until the next runSpec call on
// the same scratch. Items the batch suspended into the straggler pool are
// listed in scratch.susp (reset on every call) and have no outcome yet;
// the worker resolves them on its device after the plan drains.
func (c *Controller) runSpec(cfg *CampaignConfig, run RunW, spec batchSpec, timeout int, met *campaignMetrics, scratch *batchScratch) (converged int, saved int64, outcomes []Outcome) {
	scratch.init(run.Lanes())
	scratch.susp = scratch.susp[:0]
	n := len(spec.items)
	batch := scratch.batch[:n]
	for j, it := range spec.items {
		batch[j] = it.p
	}
	outcomes = scratch.outcomes[:n]

	met.batch(n)
	bsp := cfg.Obs.StartSpan("campaign/batch")
	early := !cfg.DisableEarlyExit
	conv, sv, panicked := c.runBatchSafe(run, batch, spec.cycle, timeout, early, outcomes, scratch)
	if panicked {
		// Isolate the faulty lane: retry each point as its own 1-lane
		// batch. Only the point(s) that still panic solo are charged with
		// the harness error; healthy lanes get their verdict.
		conv, sv = 0, 0
		scratch.susp = scratch.susp[:0]
		for j := range batch {
			mark := len(scratch.susp)
			soloConv, soloSaved, soloPanic := c.runBatchSafe(run, batch[j:j+1], spec.cycle, timeout, early, scratch.solo[:1], scratch)
			switch {
			case soloPanic:
				scratch.susp = scratch.susp[:mark]
				outcomes[j] = OutcomeHarnessError
			case len(scratch.susp) > mark:
				// The solo lane suspended itself; rebase its item index
				// from the 1-lane sub-batch to the spec.
				scratch.susp[mark].item = j
				conv += soloConv
				sv += soloSaved
			default:
				outcomes[j] = scratch.solo[0]
				conv += soloConv
				sv += soloSaved
			}
		}
	}
	met.convergedN(conv, sv)
	bsp.Detail("cycle %d, %d lanes, %d converged", spec.cycle, n, conv)
	met.batchDone(bsp.End(), n)
	return conv, sv, outcomes
}

// runBatchSafe executes one same-cycle batch with panic isolation.
func (c *Controller) runBatchSafe(run RunW, batch []FaultPoint, cycle, timeout int, early bool, outcomes []Outcome, sc *batchScratch) (converged int, saved int64, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			converged, saved, panicked = 0, 0, true
		}
	}()
	conv, sv := c.runBatch(run, batch, cycle, timeout, early, outcomes, sc)
	return conv, sv, false
}

// runBatch loads the shared checkpoint, injects one fault per lane (each
// lane's fault model decides which flip-flops change on which cycle), runs
// to halt/timeout and classifies every lane into outcomes (len(batch)
// entries). All points share cycle.
//
// With early set, lanes retire individually: each cycle the convergence
// check identifies lanes whose flip-flop state equals the golden
// reference; those of them past their fault's active window whose memory
// write digest also matches golden retire benign on the spot. The batch
// ends once every lane has halted or retired, which is what turns wide
// batches with one slow lane from worst-case into average-case runtime.
func (c *Controller) runBatch(run RunW, batch []FaultPoint, cycle, timeout int, early bool, outcomes []Outcome, sc *batchScratch) (converged int, saved int64) {
	run.LoadCheckpoint(c.golden.Checkpoints[cycle])
	groups := sc.lanes / 64
	used, halted, done := sc.used, sc.halted, sc.done
	for g := 0; g < groups; g++ {
		used[g], halted[g], done[g] = 0, 0, 0
	}
	// nLanes live device lanes carry the batch; laneItem maps each to its
	// batch item (identity until retired lanes are compacted away, then a
	// shrinking prefix of the device).
	nLanes := len(batch)
	laneItem := sc.laneItem
	// witness[lane] is the lane's watched flip-flop: the index where the
	// convergence check last saw it diverge. As long as that flip-flop
	// still differs from golden the lane cannot have converged, so the
	// per-cycle check is one word load instead of a scan over every
	// flip-flop — the classic watched-literal trick. Any valid index is a
	// sound starting point; 0 simply forces one full scan on first use.
	witness := sc.witness
	for lane := range batch {
		used[lane>>6] |= 1 << (uint(lane) & 63)
		laneItem[lane] = lane
		witness[lane] = 0
	}
	// Lane compaction: once enough lanes have been classified (done) that
	// the survivors fit in fewer 64-lane groups, pack them into the low
	// lanes and shrink the device — the per-cycle cost of a wide batch then
	// tracks its live lanes instead of its original width.
	compactRun, _ := run.(CompactRunW)
	if sc.lanes <= 64 {
		compactRun = nil // nothing to shrink below one group
	}

	ends := sc.ends
	for lane, p := range batch {
		sc.ffs[lane] = laneFFs{r: run, lane: lane}
		ends[lane] = Model(p.Model).ActiveEnd(p)
		Model(p.Model).Inject(&sc.ffs[lane], p, cycle)
	}

	readHalted := func() {
		for g := 0; g < groups; g++ {
			halted[g] = run.HaltedMaskG(g)
		}
	}
	allDone := func() bool {
		for g := 0; g < groups; g++ {
			if (halted[g]|done[g])&used[g] != used[g] {
				return false
			}
		}
		return true
	}

	mw := run.MachW()
	digests := c.golden.MemDigests

	// Straggler suspension (see resolveStragglers): once the batch is past
	// every injection end and the golden digest horizon, a surviving lane
	// can only run to its halt or its timeout — no convergence retirement,
	// no re-injection, no golden-relative check touches it again. From that
	// cycle on, a batch down to at most one group of live lanes exports
	// them into the straggler pool instead of dragging a nearly empty
	// device through the remaining cycles alone.
	suspRun, _ := run.(SuspendRunW)
	suspendAfter := len(digests)
	for lane := 0; lane < nLanes; lane++ {
		if ends[lane] > suspendAfter {
			suspendAfter = ends[lane]
		}
	}

	for cyc := cycle; cyc < timeout; cyc++ {
		if cyc > cycle {
			readHalted()
			for lane := 0; lane < nLanes; lane++ {
				if cyc < ends[lane] && (halted[lane>>6]|done[lane>>6])>>(uint(lane)&63)&1 == 0 {
					p := batch[laneItem[lane]]
					Model(p.Model).Inject(&sc.ffs[lane], p, cyc)
				}
			}
		}
		// Re-read after the injections: a fault landing in the halt flag
		// itself must be visible to this cycle's retirement/termination
		// decisions, exactly as in the sequential engine.
		readHalted()
		// Eager classification: a halted lane's state is frozen (the
		// sequential controller reads its verdict at the halt and the
		// engines journal byte-identically), so its signature now equals
		// its signature at batch end. Classifying it immediately marks it
		// done, which is what feeds the lane compaction below.
		for g := 0; g < groups; g++ {
			h := used[g] & halted[g] &^ done[g]
			for h != 0 {
				l := bits.TrailingZeros64(h)
				h &^= 1 << uint(l)
				lane := g<<6 + l
				if run.SignatureLane(lane) == c.golden.Signature {
					outcomes[laneItem[lane]] = OutcomeBenign
				} else {
					outcomes[laneItem[lane]] = OutcomeSDC
				}
				done[g] |= 1 << uint(l)
			}
		}
		if early && cyc < len(digests) {
			row := c.golden.Trace.Row(cyc)
			for g := 0; g < groups; g++ {
				// Eligible for retirement: in use, not halted, not already
				// classified, and past the fault's active window (an active
				// lane is re-injected above and cannot match golden mid-window
				// anyway; the explicit gate keeps the invariant local).
				elig := used[g] &^ (halted[g] | done[g])
				if elig == 0 {
					continue
				}
				base := g << 6
				hi := base + 64
				if hi > nLanes {
					hi = nLanes
				}
				for lane := base; lane < hi; lane++ {
					if cyc < ends[lane] {
						elig &^= 1 << uint(lane-base)
					}
				}
				// Watched-flip-flop filter: a lane whose watched flip-flop
				// still differs from golden has not converged and costs one
				// load; the digest gate then excludes lanes that could not
				// retire this cycle anyway, and only the remainder pays the
				// full flip-flop scan (which also picks the next watched
				// flip-flop).
				for m := elig; m != 0; {
					l := bits.TrailingZeros64(m)
					m &^= 1 << uint(l)
					lane := base + l
					if mw.FFDivergedLane(int(witness[lane]), lane, row) {
						continue
					}
					if run.MemDigestLane(lane) != digests[cyc] {
						continue
					}
					if k := mw.FirstDivergedFF(lane, row); k >= 0 {
						witness[lane] = int32(k)
						continue
					}
					done[g] |= 1 << uint(l)
					outcomes[laneItem[lane]] = OutcomeBenign
					converged++
					saved += int64(c.golden.HaltCycle - cyc)
				}
			}
		}
		if allDone() {
			break
		}
		if suspRun != nil && cyc >= suspendAfter && timeout-cyc > stragglerMinTail {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if live <= stragglerMaxLive {
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						sc.susp = append(sc.susp, suspLane{
							item:  laneItem[lane],
							cyc:   cyc,
							state: suspRun.ExportLane(lane),
						})
						done[g] |= 1 << uint(l)
					}
				}
				break
			}
		}
		if compactRun != nil {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if ng := (live + 63) >> 6; ng < groups {
				src := sc.src[:0]
				n := 0
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						// n <= lane throughout, so the forward moves never
						// clobber an entry still to be read.
						src = append(src, uint16(lane))
						laneItem[n] = laneItem[lane]
						ends[n] = ends[lane]
						witness[n] = witness[lane]
						n++
					}
				}
				compactRun.CompactLanes(src)
				nLanes, groups = n, ng
				for g := 0; g < groups; g++ {
					used[g], halted[g], done[g] = 0, 0, 0
				}
				for lane := 0; lane < nLanes; lane++ {
					used[lane>>6] |= 1 << (uint(lane) & 63)
				}
			}
		}
		run.Step()
	}
	readHalted()
	for lane := 0; lane < nLanes; lane++ {
		if done[lane>>6]>>(uint(lane)&63)&1 == 1 {
			continue
		}
		switch {
		case halted[lane>>6]>>(uint(lane)&63)&1 == 0:
			outcomes[laneItem[lane]] = OutcomeHang
		case run.SignatureLane(lane) == c.golden.Signature:
			outcomes[laneItem[lane]] = OutcomeBenign
		default:
			outcomes[laneItem[lane]] = OutcomeSDC
		}
	}
	return converged, saved
}

// resolveStragglers finishes the suspended lanes of all batches together:
// waves of up to the device width are imported lane by lane, packed to the
// wave's group count and run until every lane halts or reaches its own
// logical timeout. A campaign whose batches each end with a few timeout
// candidates (hangs dominate: a runaway program counter sweeping empty
// instruction memory does not revisit a state within the timeout window,
// so no loop detector can retire it early) thus pays for one packed tail
// instead of one near-empty tail per batch. Classification is exactly
// runBatch's: a lane halted at or before its logical timeout gets its
// signature verdict, a lane still running at the timeout is a hang — so
// outcomes, and the journal, are identical to the unsuspended engine.
// Waves are panic-isolated like batches: a poisoned wave is retried lane
// by lane, and only lanes that fail solo are charged OutcomeHarnessError.
func (c *Controller) resolveStragglers(cfg *CampaignConfig, run RunW, timeout int, susp []suspLane, set func(spec, item int, o Outcome), sc *batchScratch) {
	ctx := cfg.context()
	sp := cfg.Obs.StartSpan("campaign/stragglers")
	defer sp.End()
	sp.Detail("%d suspended lanes", len(susp))
	sr := run.(SuspendRunW) // suspLane entries exist only for SuspendRunW devices
	for lo := 0; lo < len(susp); lo += sc.lanes {
		if ctx.Err() != nil {
			return
		}
		hi := lo + sc.lanes
		if hi > len(susp) {
			hi = len(susp)
		}
		wave := susp[lo:hi]
		out := sc.outcomes[:len(wave)]
		if c.runWaveSafe(run, sr, timeout, wave, out, sc) {
			for i := range wave {
				solo := sc.solo[:1]
				if c.runWaveSafe(run, sr, timeout, wave[i:i+1], solo, sc) {
					set(wave[i].spec, wave[i].item, OutcomeHarnessError)
				} else {
					set(wave[i].spec, wave[i].item, solo[0])
				}
			}
			continue
		}
		for i := range wave {
			set(wave[i].spec, wave[i].item, out[i])
		}
	}
}

// runWaveSafe executes one straggler wave with panic isolation.
func (c *Controller) runWaveSafe(run RunW, sr SuspendRunW, timeout int, wave []suspLane, out []Outcome, sc *batchScratch) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	c.runWave(run, sr, timeout, wave, out, sc)
	return false
}

// runWave imports one wave of suspended lanes into the shared device and
// runs them out. Lanes come from different batches, so they carry
// different logical cycles: the wave steps them together and tracks each
// lane's remaining cycles individually — the machine's dynamics depend
// only on its state, never on the absolute cycle number, which is what
// makes heterogeneous lanes sound. out[i] receives wave[i]'s outcome.
func (c *Controller) runWave(run RunW, sr SuspendRunW, timeout int, wave []suspLane, out []Outcome, sc *batchScratch) {
	n := len(wave)
	run.MachW().Reset() // full width restored; non-wave lanes hold the reset state
	for i, s := range wave {
		sr.ImportLane(i, s.state)
	}
	groups := sc.lanes / 64
	cr, _ := run.(CompactRunW)
	if ng := (n + 63) >> 6; cr != nil && ng < groups {
		src := sc.src[:n]
		for i := range src {
			src[i] = uint16(i)
		}
		cr.CompactLanes(src)
		groups = ng
	}
	used, halted, done := sc.used, sc.halted, sc.done
	// slot maps a device lane to its wave index, deadline to the step count
	// at which it reaches its logical timeout; compaction permutes both.
	slot, deadline := sc.laneItem, sc.ends
	for g := 0; g < groups; g++ {
		used[g], halted[g], done[g] = 0, 0, 0
	}
	for i := range wave {
		used[i>>6] |= 1 << (uint(i) & 63)
		slot[i] = i
		deadline[i] = timeout - wave[i].cyc
	}
	nLanes := n
	for t := 0; ; t++ {
		for g := 0; g < groups; g++ {
			halted[g] = run.HaltedMaskG(g)
		}
		// Halted lanes classify first — a lane halted exactly at its
		// timeout state still gets its signature verdict, matching the
		// order of runBatch's final classification.
		for g := 0; g < groups; g++ {
			h := used[g] & halted[g] &^ done[g]
			for h != 0 {
				l := bits.TrailingZeros64(h)
				h &^= 1 << uint(l)
				lane := g<<6 + l
				if run.SignatureLane(lane) == c.golden.Signature {
					out[slot[lane]] = OutcomeBenign
				} else {
					out[slot[lane]] = OutcomeSDC
				}
				done[g] |= 1 << uint(l)
			}
		}
		for lane := 0; lane < nLanes; lane++ {
			if t >= deadline[lane] && (used[lane>>6]&^done[lane>>6])>>(uint(lane)&63)&1 == 1 {
				out[slot[lane]] = OutcomeHang
				done[lane>>6] |= 1 << (uint(lane) & 63)
			}
		}
		allDone := true
		for g := 0; g < groups; g++ {
			if done[g]&used[g] != used[g] {
				allDone = false
				break
			}
		}
		if allDone {
			return
		}
		if cr != nil {
			live := 0
			for g := 0; g < groups; g++ {
				live += bits.OnesCount64(used[g] &^ done[g])
			}
			if ng := (live + 63) >> 6; ng < groups {
				src := sc.src[:0]
				nn := 0
				for g := 0; g < groups; g++ {
					m := used[g] &^ done[g]
					for m != 0 {
						l := bits.TrailingZeros64(m)
						m &^= 1 << uint(l)
						lane := g<<6 + l
						src = append(src, uint16(lane))
						slot[nn] = slot[lane]
						deadline[nn] = deadline[lane]
						nn++
					}
				}
				cr.CompactLanes(src)
				nLanes, groups = nn, ng
				for g := 0; g < groups; g++ {
					used[g], halted[g], done[g] = 0, 0, 0
				}
				for lane := 0; lane < nLanes; lane++ {
					used[lane>>6] |= 1 << (uint(lane) & 63)
				}
			}
		}
		run.Step()
	}
}
