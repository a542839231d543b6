package hafi

import (
	"fmt"

	"repro/internal/cpu/avr"
	"repro/internal/cpu/msp430"
	"repro/internal/sim"
)

// RunW is a wide batched device instance: 64·W fault-injection experiments
// that share a start checkpoint advance per evaluation pass. Lane-group
// methods take g < Lanes()/64 and cover lanes 64g..64g+63.
type RunW interface {
	// Step advances all lanes one clock cycle.
	Step()
	// Lanes returns the total lane count (a multiple of 64).
	Lanes() int
	// HaltedMaskG returns a bit per halted lane of group g.
	HaltedMaskG(g int) uint64
	// LoadCheckpoint broadcasts a scalar checkpoint into every lane.
	LoadCheckpoint(cp Checkpoint)
	// FlipLane injects an SEU into flip-flop ff of one lane.
	FlipLane(ff, lane int)
	// SignatureLane condenses one lane's externally visible result.
	SignatureLane(lane int) uint64
	// MemDigestLane returns one lane's external-memory write digest.
	MemDigestLane(lane int) uint64
	// MachW exposes the lane-parallel machine (flip-flop state inspection
	// for convergence retirement).
	MachW() *sim.MachineW
}

// CompactRunW is an optional RunW capability: a device that can pack a
// subset of its lanes into the low lane indices and shrink its active
// width, so the batched engine stops paying for lanes whose experiments
// already finished. src must be strictly increasing; lane l of the
// compacted device is lane src[l] of the old one (state, memories and
// digests move together). The capability is optional: a device that does
// not offer it simply runs every batch at its full width.
type CompactRunW interface {
	RunW
	CompactLanes(src []uint16)
}

// SuspendRunW is an optional RunW capability: a device whose lanes can be
// exported as opaque single-lane snapshots and re-imported into any lane
// of a device of the same netlist and program — even one of a different
// width. The batched engine uses it to suspend straggler lanes (typically
// hang candidates running out their timeout) from nearly drained batches
// and finish them together in packed waves, instead of dragging each
// batch's tail through the simulator one or two live lanes at a time.
// ImportLane must only target lanes inside the device's active groups.
type SuspendRunW interface {
	RunW
	ExportLane(lane int) interface{}
	ImportLane(lane int, state interface{})
}

// lanesToWidth validates a -lanes style lane count.
func lanesToWidth(lanes int) (int, error) {
	if lanes <= 0 || lanes%64 != 0 {
		return 0, fmt.Errorf("hafi: lane count %d must be a positive multiple of 64", lanes)
	}
	return lanes / 64, nil
}

// avrRunW adapts the AVR lane-parallel system.
type avrRunW struct {
	sys *avr.SystemW
}

// NewAVRRunW creates a wide batched run for the AVR-class core with the
// given lane count (a positive multiple of 64).
func NewAVRRunW(core *avr.Core, prog []uint16, lanes int) (RunW, error) {
	w, err := lanesToWidth(lanes)
	if err != nil {
		return nil, err
	}
	sys, err := avr.NewSystemW(core, prog, w)
	if err != nil {
		return nil, err
	}
	return &avrRunW{sys: sys}, nil
}

func (r *avrRunW) Step()                      { r.sys.Step() }
func (r *avrRunW) Lanes() int                 { return r.sys.Lanes() }
func (r *avrRunW) HaltedMaskG(g int) uint64   { return r.sys.HaltedMaskG(g) }
func (r *avrRunW) FlipLane(ff, l int)         { r.sys.M.FlipLane(ff, l) }
func (r *avrRunW) MemDigestLane(l int) uint64 { return r.sys.WriteDigest[l] }
func (r *avrRunW) MachW() *sim.MachineW       { return r.sys.M }

func (r *avrRunW) CompactLanes(src []uint16) { r.sys.CompactLanes(src) }

func (r *avrRunW) ExportLane(l int) interface{}        { return r.sys.ExportLane(l) }
func (r *avrRunW) ImportLane(l int, state interface{}) { r.sys.ImportLane(l, state.(*avr.LaneState)) }

func (r *avrRunW) EnvW() sim.EnvW { return r.sys.Env() }

func (r *avrRunW) CheckpointLane(l int) Checkpoint {
	return &avrCheckpoint{
		ffs:    r.sys.M.FFStateLane(l),
		inputs: r.sys.M.InputStateLane(l),
		dmem:   r.sys.DMem[l],
		digest: r.sys.WriteDigest[l],
		cycle:  r.sys.M.Cycle,
	}
}

func (r *avrRunW) LoadCheckpoint(cp Checkpoint) {
	c, ok := cp.(*avrCheckpoint)
	if !ok {
		panic(fmt.Sprintf("hafi: checkpoint type %T does not match AVR run", cp))
	}
	r.sys.LoadScalarState(c.ffs, c.inputs, c.dmem, c.digest)
	r.sys.M.Cycle = c.cycle
}

func (r *avrRunW) SignatureLane(l int) uint64 {
	return SignatureHash([]byte{r.sys.PortLane(l)}, r.sys.DMem[l][:])
}

// msp430RunW adapts the MSP430 lane-parallel system.
type msp430RunW struct {
	sys *msp430.SystemW
}

// NewMSP430RunW creates a wide batched run for the MSP430-class core with
// the given lane count (a positive multiple of 64).
func NewMSP430RunW(core *msp430.Core, prog []uint16, lanes int) (RunW, error) {
	w, err := lanesToWidth(lanes)
	if err != nil {
		return nil, err
	}
	sys, err := msp430.NewSystemW(core, prog, w)
	if err != nil {
		return nil, err
	}
	return &msp430RunW{sys: sys}, nil
}

func (r *msp430RunW) Step()                      { r.sys.Step() }
func (r *msp430RunW) Lanes() int                 { return r.sys.Lanes() }
func (r *msp430RunW) HaltedMaskG(g int) uint64   { return r.sys.HaltedMaskG(g) }
func (r *msp430RunW) FlipLane(ff, l int)         { r.sys.M.FlipLane(ff, l) }
func (r *msp430RunW) MemDigestLane(l int) uint64 { return r.sys.WriteDigest[l] }
func (r *msp430RunW) MachW() *sim.MachineW       { return r.sys.M }

func (r *msp430RunW) CompactLanes(src []uint16) { r.sys.CompactLanes(src) }

func (r *msp430RunW) ExportLane(l int) interface{} { return r.sys.ExportLane(l) }
func (r *msp430RunW) ImportLane(l int, state interface{}) {
	r.sys.ImportLane(l, state.(*msp430.LaneState))
}

func (r *msp430RunW) EnvW() sim.EnvW { return r.sys.Env() }

func (r *msp430RunW) CheckpointLane(l int) Checkpoint {
	return &msp430Checkpoint{
		ffs:    r.sys.M.FFStateLane(l),
		inputs: r.sys.M.InputStateLane(l),
		dmem:   r.sys.DMem[l],
		digest: r.sys.WriteDigest[l],
		cycle:  r.sys.M.Cycle,
	}
}

func (r *msp430RunW) LoadCheckpoint(cp Checkpoint) {
	c, ok := cp.(*msp430Checkpoint)
	if !ok {
		panic(fmt.Sprintf("hafi: checkpoint type %T does not match MSP430 run", cp))
	}
	r.sys.LoadScalarState(c.ffs, c.inputs, c.dmem, c.digest)
	r.sys.M.Cycle = c.cycle
}

func (r *msp430RunW) SignatureLane(l int) uint64 {
	return signatureWords16(r.sys.PortLane(l), r.sys.DMem[l][:])
}
