package main

import (
	"fmt"

	"repro/internal/hafi"
)

// pinnedDigests are the FNV-1a 64 digests of the default-seed verdict
// references under perfbench/reference: the scalar oracle's verdict for
// every point of each campaign workload's fault list.
var pinnedDigests = map[string]uint64{
	"campaign-avr-seu":      0x413ccf6bc0ffc746,
	"campaign-msp430-stuck": 0x85135cbffd939719,
}

// buildReference recomputes a campaign workload's default-seed reference
// on the scalar oracle and writes it. It takes minutes: every point runs
// sequentially on the scalar machine without early exit.
func buildReference(w *workload, opts options) error {
	cs := w.spec
	if cs == nil {
		return fmt.Errorf("workload %s has no verdict reference", w.name)
	}
	if opts.seed != DefaultSeed {
		return fmt.Errorf("the reference is pinned for the default seed %d, not %d", DefaultSeed, opts.seed)
	}
	t, err := newTarget(cs.cpu, cs.program)
	if err != nil {
		return err
	}
	g, err := hafi.RecordGolden(t.newOracleRun(), maxGoldenCycles)
	if err != nil {
		return err
	}
	points, err := buildFaultList(t.nl, cs.model, g.HaltCycle, cs.cycles, opts.seed)
	if err != nil {
		return err
	}
	_, v, err := oracleVerdicts(t, points, opts.tmpDir)
	if err != nil {
		return err
	}
	if err := writeReferenceFile(cs.name, opts.seed, v); err != nil {
		return err
	}
	fmt.Fprintf(opts.stdout, "%s: %d verdicts, fnv64 %016x written to %s\n", cs.name, len(v), verdictDigest(v), referencePath(cs.name))
	return nil
}
