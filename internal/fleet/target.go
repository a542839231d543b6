package fleet

import (
	"fmt"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/hafi"
	"repro/internal/netlist"
	"repro/internal/progs"
)

// Target bundles everything the coordinator and worker binaries need to
// instantiate one (cpu, workload) pair: the netlist, the register-file
// group names (for -norf fault lists), and run factories for the golden
// reference and the lane-parallel campaign engine. Centralised here so the
// two fleet binaries and cmd/campaign cannot drift apart on what
// "avr"/"fib" mean.
type Target struct {
	NL *netlist.Netlist
	// RFGroups are the register-file FF groups, excluded when NoRF is set.
	RFGroups []string
	NewRun   func() hafi.Run
	// NewRunW builds a wide device with the given lane count (a positive
	// multiple of 64); fleet workers default to hafi.DefaultCampaignLanes.
	NewRunW func(lanes int) (hafi.RunW, error)
}

// NewTarget resolves a cpu ("avr", "msp430") and workload ("fib", "conv",
// "sort") pair.
func NewTarget(cpuName, progName string) (*Target, error) {
	switch cpuName {
	case "avr":
		var p []uint16
		switch progName {
		case "fib":
			p = progs.AVRFib()
		case "conv":
			p = progs.AVRConv()
		case "sort":
			p = progs.AVRSort()
		default:
			return nil, fmt.Errorf("fleet: unknown workload %q (want fib, conv or sort)", progName)
		}
		return &Target{
			NL:       avr.NewCore().NL,
			RFGroups: []string{avr.GroupRegFile},
			NewRun:   func() hafi.Run { return hafi.NewAVRRun(avr.NewCore(), p) },
			NewRunW:  func(lanes int) (hafi.RunW, error) { return hafi.NewAVRRunW(avr.NewCore(), p, lanes) },
		}, nil
	case "msp430":
		var p []uint16
		switch progName {
		case "fib":
			p = progs.MSP430Fib()
		case "conv":
			p = progs.MSP430Conv()
		case "sort":
			p = progs.MSP430Sort()
		default:
			return nil, fmt.Errorf("fleet: unknown workload %q (want fib, conv or sort)", progName)
		}
		return &Target{
			NL:       msp430.NewCore().NL,
			RFGroups: []string{msp430.GroupRegFile},
			NewRun:   func() hafi.Run { return hafi.NewMSP430Run(msp430.NewCore(), p) },
			NewRunW:  func(lanes int) (hafi.RunW, error) { return hafi.NewMSP430RunW(msp430.NewCore(), p, lanes) },
		}, nil
	}
	return nil, fmt.Errorf("fleet: unknown cpu %q (want avr or msp430)", cpuName)
}
