package repro

// Wide-engine differential matrix: for every fault model, the campaign must
// journal byte-identical streams across
//
//   - device width: 64-lane and 256-lane devices,
//   - scheduling: one device and a pool of one device per CPU,
//   - early-exit: convergence retirement on and off,
//
// with the sequential scalar controller as the semantic anchor. The batch
// planner packs points identically regardless of lane count (stable
// cycle-major order, per-point record emission), so the journals are
// compared as raw bytes — any divergence in planning, packing, lane
// compaction or classification breaks the equality.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hafi"
	"repro/internal/journal"
)

func TestDifferentialWideDeltaMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign comparison is not short")
	}
	c := experiments.PrepareAVR()
	prog := c.FibProg

	golden, err := hafi.RecordGolden(c.NewRun(prog), 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	specs := []hafi.ModelSpec{
		{Model: hafi.ModelSEU},
		{Model: hafi.ModelMBU, Span: 2},
		{Model: hafi.ModelSET},
		{Model: hafi.ModelIntermittent, Period: 2, Window: 6},
		{Model: hafi.ModelStuckAt, Window: 3, StuckHigh: true},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			const stride = 3000
			full := hafi.ModelFaultList(c.NL, golden.HaltCycle, stride, spec)
			var points []hafi.FaultPoint
			for i := 0; i < len(full); i += 3 {
				points = append(points, full[i])
			}
			if len(points) < 60 {
				t.Fatalf("fault list too small for a meaningful comparison: %d points", len(points))
			}

			dir := t.TempDir()
			runJournaled := func(name string, exec func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)) ([]byte, []journal.Record) {
				t.Helper()
				path := filepath.Join(dir, name+".journal")
				ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
				jw, err := journal.Create(path, ctl.JournalHeader(points))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec(hafi.CampaignConfig{Points: points, Journal: jw}); err != nil {
					t.Fatalf("%s campaign: %v", name, err)
				}
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := journal.Recover(path)
				if err != nil {
					t.Fatalf("%s journal recovery: %v", name, err)
				}
				if len(rec.ByIndex) != len(points) {
					t.Fatalf("%s journal has %d records, want %d", name, len(rec.ByIndex), len(points))
				}
				out := make([]journal.Record, len(points))
				for idx, r := range rec.ByIndex {
					out[idx] = r
				}
				return raw, out
			}

			batched := func(lanes, workers int, disableEarly bool) func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
				return func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error) {
					cfg.DisableEarlyExit = disableEarly
					cfg.Workers = workers
					ctl := hafi.NewControllerPool(func() hafi.Run { return c.NewRun(prog) }, golden)
					return ctl.RunCampaignBatched(cfg, func() (hafi.RunW, error) { return c.NewRunW(prog, lanes) })
				}
			}
			pool := runtime.NumCPU()

			variants := []struct {
				name string
				exec func(cfg hafi.CampaignConfig) (*hafi.CampaignResult, error)
			}{
				{"64-early", batched(64, 1, false)},
				{"256-early", batched(256, 1, false)},
				{"256-full", batched(256, 1, true)},
				{"pooled-256-early", batched(256, pool, false)},
				{"pooled-256-full", batched(256, pool, true)},
			}

			var firstRaw []byte
			var firstRecs []journal.Record
			for _, v := range variants {
				raw, recs := runJournaled(v.name, v.exec)
				if firstRaw == nil {
					firstRaw, firstRecs = raw, recs
					continue
				}
				if !bytes.Equal(raw, firstRaw) {
					// Locate the first diverging record for a useful message.
					for i := range recs {
						if recs[i] != firstRecs[i] {
							t.Fatalf("%s journal diverges from %s at point %d (ff=%d cycle=%d): %+v != %+v",
								v.name, variants[0].name, i, points[i].FF, points[i].Cycle, recs[i], firstRecs[i])
						}
					}
					t.Fatalf("%s journal bytes differ from %s but records agree — header or framing drift", v.name, variants[0].name)
				}
			}

			// Semantic anchor: the sequential scalar controller must classify
			// every point identically.
			ctl := hafi.NewController(c.NewRun(prog), golden)
			seq, err := ctl.RunCampaign(hafi.CampaignConfig{Points: points, DisableEarlyExit: true})
			if err != nil {
				t.Fatal(err)
			}
			byOutcome := map[uint8]int{}
			for _, r := range firstRecs {
				byOutcome[r.Outcome]++
			}
			for o, n := range seq.ByOutcome {
				if byOutcome[uint8(o)] != int(n) {
					t.Errorf("outcome %s: batched matrix %d, sequential scalar %d", o, byOutcome[uint8(o)], n)
				}
			}
			t.Logf("%s: %d points, outcomes %v", spec, len(points), fmt.Sprint(byOutcome))
		})
	}
}
