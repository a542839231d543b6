package hafi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
)

// TestBatchedMatchesSequential: the 64-lane batched campaign must produce
// exactly the same aggregate outcome counts as the sequential controller
// on the same fault list.
func TestBatchedMatchesSequential(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 3)

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatched(CampaignConfig{Points: points}, oneDevice(run64))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Total != bat.Total || seq.Executed != bat.Executed {
		t.Fatalf("accounting differs: %+v vs %+v", seq, bat)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang} {
		if seq.ByOutcome[o] != bat.ByOutcome[o] {
			t.Errorf("%s: sequential %d, batched %d", o, seq.ByOutcome[o], bat.ByOutcome[o])
		}
	}
}

// TestBatchedWithPruningAndValidation: online pruning and validated skips
// behave identically in the batched controller.
func TestBatchedWithPruningAndValidation(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	set := core.Search(c.NL, c.NL.FFQWires(), core.DefaultSearchParams()).Set
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 4)

	run64, err := NewAVRRunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatched(CampaignConfig{
		Points:          points,
		MATESet:         set,
		ValidateSkipped: true,
	}, oneDevice(run64))
	if err != nil {
		t.Fatal(err)
	}
	if bat.Skipped == 0 {
		t.Fatal("expected pruning")
	}
	if bat.SkippedWrong != 0 {
		t.Fatalf("batched validation found %d wrong skips", bat.SkippedWrong)
	}

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points, MATESet: set})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Skipped != bat.Skipped || seq.Executed != bat.Executed {
		t.Fatalf("pruning differs: seq %+v, batched %+v", seq, bat)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang} {
		if seq.ByOutcome[o] != bat.ByOutcome[o] {
			t.Errorf("%s: sequential %d, batched %d", o, seq.ByOutcome[o], bat.ByOutcome[o])
		}
	}
}

// TestBatchedMSP430 exercises the MSP430 lane-parallel path.
func TestBatchedMSP430(t *testing.T) {
	c := msp430.NewCore()
	prog := msp430.MustAssemble(`
	    movi r1, 4
	    movi r2, 0
	loop:
	    add r1, r2
	    addi r1, -1
	    jne loop
	    out r2
	    halt
	`)
	r := NewMSP430Run(c, prog)
	g, err := RecordGolden(r, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(r, g)
	points := SampledFaultList(c.NL, g.HaltCycle, 5)

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	run64, err := NewMSP430RunW(c, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := ctl.RunCampaignBatched(CampaignConfig{Points: points}, oneDevice(run64))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang} {
		if seq.ByOutcome[o] != bat.ByOutcome[o] {
			t.Errorf("%s: sequential %d, batched %d", o, seq.ByOutcome[o], bat.ByOutcome[o])
		}
	}
}

// TestBatchedCheckpointTypeMismatch: loading an AVR checkpoint into an
// MSP430 batch must panic loudly rather than corrupt state.
func TestBatchedCheckpointTypeMismatch(t *testing.T) {
	ac := avr.NewCore()
	aprog := avr.MustAssemble("halt")
	arun := NewAVRRun(ac, aprog)
	cp := arun.Checkpoint()

	mc := msp430.NewCore()
	mrun64, err := NewMSP430RunW(mc, msp430.MustAssemble("halt"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on checkpoint type mismatch")
		}
	}()
	mrun64.LoadCheckpoint(cp)
}

// TestBatchedPoolMatchesSequential: the pooled 64-lane engine — factory
// construction path, several device instances, reorder-buffer emission —
// must match the sequential controller outcome for outcome. The fault
// list is MBU so the pool is exercised under a non-SEU model (multi-FF
// injection per lane, journal-v3 point shapes).
func TestBatchedPoolMatchesSequential(t *testing.T) {
	c, prog, g, r := goldenAVR(t)
	ctl := NewController(r, g)
	points := ModelFaultList(c.NL, g.HaltCycle, 6, ModelSpec{Model: ModelMBU, Span: 2})
	if len(points) < 64 {
		t.Fatalf("fault list too small to fill a lane batch: %d points", len(points))
	}

	seq, err := ctl.RunCampaign(CampaignConfig{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ctl.RunCampaignBatched(CampaignConfig{Points: points, Workers: 3},
		func() (RunW, error) { return NewAVRRunW(avr.NewCore(), prog, 64) })
	if err != nil {
		t.Fatal(err)
	}
	if seq.Total != pool.Total || seq.Executed != pool.Executed || seq.Skipped != pool.Skipped {
		t.Fatalf("accounting differs: sequential %+v, pooled %+v", seq, pool)
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeHang} {
		if seq.ByOutcome[o] != pool.ByOutcome[o] {
			t.Errorf("%s: sequential %d, pooled %d", o, seq.ByOutcome[o], pool.ByOutcome[o])
		}
	}
}

// oneDevice hands the batched engine the same device on every call, for
// single-worker campaigns that reuse one device across runs.
func oneDevice(r RunW) func() (RunW, error) {
	return func() (RunW, error) { return r, nil }
}
