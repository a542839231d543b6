package repro

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation benches for the heuristic knobs called out in
// DESIGN.md. Each benchmark regenerates its experiment from scratch per
// iteration (the per-CPU traces are prepared once and shared), so -bench
// output measures the cost of the reproduced pipeline stage itself:
//
//	BenchmarkFigure1a        — fault-cone + MATE search on the example circuit
//	BenchmarkTable1_*        — heuristic MATE search per CPU × fault set
//	BenchmarkTable2_AVR      — AVR fault-space reduction + top-N selection
//	BenchmarkTable3_MSP430   — MSP430 fault-space reduction + top-N selection
//	BenchmarkLUTCost         — Section 6.1 FPGA cost model
//	BenchmarkCampaign        — HAFI campaign with online pruning
//	BenchmarkCampaignBatched — batched engine, early-exit on vs off
//	BenchmarkCampaignPool    — batched engine, GOMAXPROCS devices
//	BenchmarkAblation*       — search-depth / term-count ablations
//	BenchmarkExactVerify     — BDD re-proof of the heuristic MATE set
//	BenchmarkExactFind       — exact prime-implicant term extraction
//
// Run everything with:  go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/collapse"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/intercycle"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/prune"
	"repro/internal/verilog"
)

// BenchmarkFigure1a regenerates the worked example of Figure 1: cone
// analysis and MATE search for all inputs of the example circuit.
func BenchmarkFigure1a(b *testing.B) {
	nl, w := experiments.Figure1Circuit()
	inputs := []netlist.WireID{w["a"], w["b"], w["c"], w["d"], w["e"], w["h"]}
	params := core.DefaultSearchParams()
	params.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Search(nl, inputs, params)
		if res.Set.Size() == 0 {
			b.Fatal("no MATEs")
		}
	}
}

func benchTable1(b *testing.B, c *experiments.CPUCase, noRF bool) {
	b.Helper()
	wires := c.FaultAll
	if noRF {
		wires = c.FaultNoRF
	}
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Search(c.NL, wires, params)
		if res.Set.Size() == 0 {
			b.Fatal("no MATEs")
		}
	}
}

// BenchmarkTable1_* regenerate the four columns of Table 1 (the heuristic
// MATE search itself; the paper reports its run time in this table).
func BenchmarkTable1_AVR_FF(b *testing.B)      { benchTable1(b, experiments.PrepareAVR(), false) }
func BenchmarkTable1_AVR_NoRF(b *testing.B)    { benchTable1(b, experiments.PrepareAVR(), true) }
func BenchmarkTable1_MSP430_FF(b *testing.B)   { benchTable1(b, experiments.PrepareMSP430(), false) }
func BenchmarkTable1_MSP430_NoRF(b *testing.B) { benchTable1(b, experiments.PrepareMSP430(), true) }

func benchPerf(b *testing.B, c *experiments.CPUCase) {
	b.Helper()
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Perf(c, params)
		if t.Cells["fib"]["FF"].MaskedComplete <= 0 {
			b.Fatal("no reduction")
		}
	}
}

// BenchmarkTable2_AVR regenerates Table 2: complete-set evaluation, top-N
// hit-counter selection on both traces and cross-validation for the AVR.
func BenchmarkTable2_AVR(b *testing.B) { benchPerf(b, experiments.PrepareAVR()) }

// BenchmarkTable3_MSP430 regenerates Table 3 for the MSP430.
func BenchmarkTable3_MSP430(b *testing.B) { benchPerf(b, experiments.PrepareMSP430()) }

// BenchmarkReplayEvaluate isolates the per-cycle MATE evaluation that an
// online HAFI integration performs in hardware: one complete 8500-cycle
// replay of the full AVR MATE set.
func BenchmarkReplayEvaluate(b *testing.B) {
	c := experiments.PrepareAVR()
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prune.Evaluate(set, c.TraceFib, c.FaultAll)
		if res.MaskedPoints == 0 {
			b.Fatal("no masking")
		}
	}
}

// BenchmarkTopNSelection isolates the hit-counter selection step.
func BenchmarkTopNSelection(b *testing.B) {
	c := experiments.PrepareAVR()
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := prune.SelectTopN(set, c.TraceFib, c.FaultAll, 50)
		if sel.Size() == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkLUTCost regenerates the Section 6.1 cost table.
func BenchmarkLUTCost(b *testing.B) {
	c := experiments.PrepareAVR()
	params := core.DefaultSearchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.LUTCosts(c, params)
		if len(rows) == 0 || rows[0].LUTs == 0 {
			b.Fatal("no cost")
		}
	}
}

// BenchmarkCampaign runs a sampled HAFI campaign with online MATE pruning
// on the AVR (the abstract's headline use case: fewer FI experiments).
func BenchmarkCampaign(b *testing.B) {
	c := experiments.PrepareAVR()
	params := core.DefaultSearchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Campaign(context.Background(), c, "fib", 500, params, false)
		if err != nil {
			b.Fatal(err)
		}
		if row.Result.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignBatched isolates the batched execution engine on one
// 64-lane device:
// golden run, MATE search and fault list are prepared once outside the
// loop, so the measured cost is experiment execution alone. The sub-bench
// pair toggles the golden-state convergence early-exit; the delta between
// them is the early-exit payoff on this workload.
func BenchmarkCampaignBatched(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.NewRun(c.FibProg)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	ctl := hafi.NewController(run, golden)
	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 500)
	for _, bc := range []struct {
		name    string
		disable bool
	}{{"early-exit", false}, {"full-run", true}} {
		b.Run(bc.name, func(b *testing.B) {
			dev, err := c.NewRunW(c.FibProg, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ctl.RunCampaignBatched(hafi.CampaignConfig{
					Points:           points,
					MATESet:          set,
					DisableEarlyExit: bc.disable,
				}, func() (hafi.RunW, error) { return dev, nil })
				if err != nil {
					b.Fatal(err)
				}
				if res.Total == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}

// BenchmarkCampaignWide sweeps the device lane width on the prepared
// inputs of BenchmarkCampaignBatched: the W ablation EXPERIMENTS.md
// tracks.
func BenchmarkCampaignWide(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.NewRun(c.FibProg)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	ctl := hafi.NewController(run, golden)
	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 500)
	for _, lanes := range []int{64, 128, 256} {
		b.Run(benchName("lanes", lanes), func(b *testing.B) {
			dev, err := c.NewRunW(c.FibProg, lanes)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ctl.RunCampaignBatched(hafi.CampaignConfig{
					Points:  points,
					MATESet: set,
				}, func() (hafi.RunW, error) { return dev, nil })
				if err != nil {
					b.Fatal(err)
				}
				if res.Total == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}

// BenchmarkCampaignMBU is BenchmarkCampaignBatched under the mbu:2 fault
// model: adjacent-pair bursts enumerated over the same workload, executed
// by the batched engine with pruning and early-exit enabled. Multi-flip
// points are outside the MATE masking argument (never pruned) and inject
// two flips per held cycle, so the delta against the SEU benchmark is the
// model-diversity overhead of the injection hot path.
func BenchmarkCampaignMBU(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.NewRun(c.FibProg)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	ctl := hafi.NewController(run, golden)
	points := hafi.ModelFaultList(c.NL, golden.HaltCycle, 500, hafi.ModelSpec{Model: hafi.ModelMBU, Span: 2})
	dev, err := c.NewRunW(c.FibProg, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctl.RunCampaignBatched(hafi.CampaignConfig{
			Points:  points,
			MATESet: set,
		}, func() (hafi.RunW, error) { return dev, nil })
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignPool measures the batched engine with one 64-lane
// device instance per logical CPU (same prepared inputs as
// BenchmarkCampaignBatched; the delta is the multi-core scaling).
func BenchmarkCampaignPool(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.NewRun(c.FibProg)
	golden, err := hafi.RecordGolden(run, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	set := core.Search(c.NL, c.FaultAll, core.DefaultSearchParams()).Set
	ctl := hafi.NewController(run, golden)
	points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctl.RunCampaignBatched(hafi.CampaignConfig{
			Points:  points,
			MATESet: set,
			Workers: runtime.GOMAXPROCS(0),
		}, func() (hafi.RunW, error) { return c.NewRunW(c.FibProg, 64) })
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignJournal is BenchmarkCampaign with a durable journal
// attached: same golden run, MATE search and batched campaign, plus one
// crash-recovery record per classified point. The delta against
// BenchmarkCampaign is the journal write overhead (EXPERIMENTS.md tracks
// it; the resilience contract demands it stays within a few percent).
func BenchmarkCampaignJournal(b *testing.B) {
	c := experiments.PrepareAVR()
	params := core.DefaultSearchParams()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := c.NewRun(c.FibProg)
		golden, err := hafi.RecordGolden(run, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		set := core.Search(c.NL, c.FaultAll, params).Set
		ctl := hafi.NewController(run, golden)
		dev, err := c.NewRunW(c.FibProg, 64)
		if err != nil {
			b.Fatal(err)
		}
		points := hafi.SampledFaultList(c.NL, golden.HaltCycle, 500)
		jw, err := journal.Create(filepath.Join(dir, fmt.Sprintf("bench-%d.journal", i)), ctl.JournalHeader(points))
		if err != nil {
			b.Fatal(err)
		}
		res, err := ctl.RunCampaignBatched(hafi.CampaignConfig{
			Points:  points,
			MATESet: set,
			Journal: jw,
		}, func() (hafi.RunW, error) { return dev, nil })
		if err != nil {
			b.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// --- ablation benches for the heuristic knobs (DESIGN.md §6) -------------

// BenchmarkAblationDepth sweeps the path-enumeration depth.
func BenchmarkAblationDepth(b *testing.B) {
	c := experiments.PrepareAVR()
	for _, depth := range []int{2, 4, 8, 12} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			params := core.DefaultSearchParams()
			params.Depth = depth
			for i := 0; i < b.N; i++ {
				core.Search(c.NL, c.FaultAll, params)
			}
		})
	}
}

// BenchmarkAblationTerms sweeps the maximum number of gate-masking terms.
func BenchmarkAblationTerms(b *testing.B) {
	c := experiments.PrepareAVR()
	for _, terms := range []int{1, 2, 4, 6} {
		b.Run(benchName("terms", terms), func(b *testing.B) {
			params := core.DefaultSearchParams()
			params.MaxTerms = terms
			for i := 0; i < b.N; i++ {
				core.Search(c.NL, c.FaultAll, params)
			}
		})
	}
}

// BenchmarkExactVerify measures the BDD-backed re-proof of the heuristic
// MATE set (internal/exact.VerifyMATESet) per CPU, at the node budget the
// tier-1 tests use and one tier up. Cones over the budget fall back to
// unproven, so the budget sweep doubles as a coverage-vs-cost ablation.
func BenchmarkExactVerify(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR()},
		{"msp430", experiments.PrepareMSP430()},
	} {
		set := core.Search(tc.c.NL, tc.c.FaultAll, core.DefaultSearchParams()).Set
		for _, budget := range []int{1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := exact.VerifyMATESet(tc.c.NL, set, exact.Options{NodeBudget: budget})
					if !res.Sound() {
						b.Fatal("heuristic set disproved")
					}
				}
			})
		}
	}
}

// BenchmarkExactFind measures the prime-implicant term extraction
// (internal/exact.FindExactTerms) over every faulty wire, same budget sweep.
func BenchmarkExactFind(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *experiments.CPUCase
	}{
		{"avr", experiments.PrepareAVR()},
		{"msp430", experiments.PrepareMSP430()},
	} {
		set := core.Search(tc.c.NL, tc.c.FaultAll, core.DefaultSearchParams()).Set
		for _, budget := range []int{1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("%s/budget=%d", tc.name, budget), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := exact.FindExactTerms(tc.c.NL, tc.c.FaultAll, set, exact.Options{NodeBudget: budget})
					if res.TermsFound == 0 {
						b.Fatal("no exact terms found")
					}
				}
			})
		}
	}
}

// BenchmarkInterCycle measures the offline inter-cycle analysis (DESIGN.md
// extension; paper §6.3 complement) over the AVR register file.
func BenchmarkInterCycle(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := intercycle.Analyze(c.NL, c.TraceFib, c.FaultNoRF)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalPoints == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkFaultCollapse measures the structural stuck-at collapsing of
// the related-work complement on the AVR netlist.
func BenchmarkFaultCollapse(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := collapse.Collapse(c.NL)
		if r.Classes == 0 {
			b.Fatal("no classes")
		}
	}
}

// BenchmarkVerilogRoundTrip measures netlist export + re-import.
func BenchmarkVerilogRoundTrip(b *testing.B) {
	c := experiments.PrepareAVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := verilog.Write(&buf, c.NL); err != nil {
			b.Fatal(err)
		}
		if _, err := verilog.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateLevelSim measures the raw simulation substrate: cycles per
// second of the AVR core under the fib workload (the cost HAFI platforms
// avoid by emulating in hardware).
func BenchmarkGateLevelSim(b *testing.B) {
	c := experiments.PrepareAVR()
	run := c.NewRun(c.FibProg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Step()
	}
}

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
