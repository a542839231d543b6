package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/hafi"
	"repro/internal/netlist"
)

// target is one processor core with one program loaded: the synthesized
// netlist plus constructors for the devices a campaign runs on.
type target struct {
	nl *netlist.Netlist
	// newRunW builds a wide batched device on the synthesized core.
	newRunW func() (hafi.RunW, error)
	// newRun builds a scalar device on the synthesized core.
	newRun func() hafi.Run
	// newOracleRun builds a scalar device on a freshly synthesized core,
	// so the reference shares no state with the engine under test.
	newOracleRun func() hafi.Run
	// memBus lists the memory-interface wires the core drives and the
	// environment reads: instruction address, data address, write enable
	// and write data.
	memBus []netlist.WireID
}

func memBus(addr, daddr []netlist.WireID, we netlist.WireID, wdata []netlist.WireID) []netlist.WireID {
	bus := append(append([]netlist.WireID{}, addr...), daddr...)
	return append(append(bus, we), wdata...)
}

// newTarget synthesizes the core and assembles the program.
func newTarget(cpu string, program func() []uint16) (*target, error) {
	p := program()
	switch cpu {
	case "avr":
		c := avr.NewCore()
		return &target{
			nl:           c.NL,
			newRunW:      func() (hafi.RunW, error) { return hafi.NewAVRRunW(c, p, Lanes) },
			newRun:       func() hafi.Run { return hafi.NewAVRRun(c, p) },
			newOracleRun: func() hafi.Run { return hafi.NewAVRRun(avr.NewCore(), p) },
			memBus:       memBus(c.IMemAddr, c.DMemAddr, c.DMemWE, c.DMemWData),
		}, nil
	case "msp430":
		c := msp430.NewCore()
		return &target{
			nl:           c.NL,
			newRunW:      func() (hafi.RunW, error) { return hafi.NewMSP430RunW(c, p, Lanes) },
			newRun:       func() hafi.Run { return hafi.NewMSP430Run(c, p) },
			newOracleRun: func() hafi.Run { return hafi.NewMSP430Run(msp430.NewCore(), p) },
			memBus:       memBus(c.IMemAddr, c.DMemAddr, c.DMemWE, c.DMemWData),
		}, nil
	}
	return nil, fmt.Errorf("unknown cpu %q", cpu)
}

// maxGoldenCycles bounds every golden run.
const maxGoldenCycles = 1 << 20

// buildFaultList is the benchmark's input generator: every injection site
// of the model (all flip-flops) at k cycles drawn from the golden run, in
// cycle-major order. The cycles are stratified: cycle i is drawn uniformly
// from the i-th of k equal slices of [0, haltCycle), so every seed covers
// the whole run evenly and seeds differ only in where inside each slice
// they inject.
func buildFaultList(nl *netlist.Netlist, model hafi.ModelSpec, haltCycle, k int, seed int64) ([]hafi.FaultPoint, error) {
	if k < 1 || haltCycle < k {
		return nil, fmt.Errorf("cannot draw %d cycles from a %d-cycle golden run", k, haltCycle)
	}
	sites := hafi.ModelFaultList(nl, 1, 1, model)
	rng := rand.New(rand.NewSource(seed))
	out := make([]hafi.FaultPoint, 0, k*len(sites))
	for i := 0; i < k; i++ {
		lo, hi := i*haltCycle/k, (i+1)*haltCycle/k
		cyc := lo + rng.Intn(hi-lo)
		for _, s := range sites {
			p := s
			p.Cycle = cyc
			out = append(out, p)
		}
	}
	return out, nil
}
