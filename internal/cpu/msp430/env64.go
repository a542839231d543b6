package msp430

import "repro/internal/sim"

// SystemW couples the core with 64·W lane-parallel behavioural memories
// for batched fault-injection experiments (see sim.MachineW). W=1 is the
// classic 64-lane system; the batched campaign engine runs W=4 (256
// lanes) by default.
type SystemW struct {
	Core *Core
	M    *sim.MachineW
	IMem []uint16
	// DMem is lane-major: DMem[lane][address], lane < 64·W.
	DMem [][1 << DMemBits]uint16
	// WriteDigest chains each lane's data-memory write events, mirroring
	// the scalar System.WriteDigest lane for lane.
	WriteDigest []uint64

	envFn sim.EnvW // cached: Step runs every cycle, a per-call closure is pure garbage

	// Per-call transpose scratch, lane-major. Kept on the system so the
	// per-cycle environment is allocation-free at any width.
	pc, instr, addr, rdata, wdata []uint16
	weMask                        []uint64
}

// NewSystemW builds the lane-parallel machine at width w (64·w lanes) with
// the program loaded.
func NewSystemW(core *Core, prog []uint16, w int) (*SystemW, error) {
	m, err := sim.NewMachineW(core.NL, w)
	if err != nil {
		return nil, err
	}
	lanes := m.NumLanes()
	s := &SystemW{
		Core:        core,
		M:           m,
		IMem:        prog,
		DMem:        make([][1 << DMemBits]uint16, lanes),
		WriteDigest: make([]uint64, lanes),
		pc:          make([]uint16, lanes),
		instr:       make([]uint16, lanes),
		addr:        make([]uint16, lanes),
		rdata:       make([]uint16, lanes),
		wdata:       make([]uint16, lanes),
		weMask:      make([]uint64, w),
	}
	for l := range s.WriteDigest {
		s.WriteDigest[l] = sim.WriteDigestSeed
	}
	// The environment only ever drives the instruction and read-data buses,
	// so Settle's second pass can be restricted to their downstream cone.
	m.SetEnvWrites(core.IMemData, core.DMemRData)
	s.envFn = sim.EnvWFunc(s.env)
	return s, nil
}

// Env returns the lane-parallel memory environment.
func (s *SystemW) Env() sim.EnvW { return s.envFn }

// Lanes returns the total lane count (64·W).
func (s *SystemW) Lanes() int { return len(s.WriteDigest) }

func (s *SystemW) env(m *sim.MachineW) {
	core := s.Core
	// Only the active lanes are simulated: after the campaign engine
	// compacts retired lanes out of a batch, the per-lane memory loops and
	// the bus transposes shrink with the machine.
	w := m.ActiveGroups()
	lanes := m.ActiveLanes()

	// Instruction fetch. When every lane agrees on the PC (benign lanes
	// track the golden control flow, so this is the common case before the
	// batch diverges) a single fetch is broadcast to all lanes; otherwise
	// the address bus is transposed to lane-major and fetched per lane.
	uniform := true
	for _, wire := range core.IMemAddr {
		first := m.LaneWord(wire, 0)
		if first != 0 && first != ^uint64(0) {
			uniform = false
			break
		}
		for g := 1; g < w; g++ {
			if m.LaneWord(wire, g) != first {
				uniform = false
				break
			}
		}
		if !uniform {
			break
		}
	}
	if uniform {
		var pc uint64
		for i, wire := range core.IMemAddr {
			pc |= (m.LaneWord(wire, 0) & 1) << uint(i)
		}
		var instr uint16
		if int(pc) < len(s.IMem) {
			instr = s.IMem[pc]
		}
		for i, wire := range core.IMemData {
			m.Broadcast(wire, instr>>uint(i)&1 == 1)
		}
	} else {
		m.GatherLanes(core.IMemAddr, s.pc)
		// Lanes at different PCs can still fetch the same word — runaway
		// lanes sweeping past the end of IMem all read zero for thousands of
		// cycles — so the 16-wire scatter transpose is skipped whenever the
		// fetched instructions agree.
		same := true
		first := uint16(0)
		if int(s.pc[0]) < len(s.IMem) {
			first = s.IMem[s.pc[0]]
		}
		s.instr[0] = first
		for l := 1; l < lanes; l++ {
			var ins uint16
			if int(s.pc[l]) < len(s.IMem) {
				ins = s.IMem[s.pc[l]]
			}
			s.instr[l] = ins
			same = same && ins == first
		}
		if same {
			for i, wire := range core.IMemData {
				m.Broadcast(wire, first>>uint(i)&1 == 1)
			}
		} else {
			m.ScatterLanes(core.IMemData, s.instr)
		}
	}

	// Data memory: the contents are lane-private, so the access itself is
	// always per lane, but the bus crossings are bit-matrix transposes —
	// skipped, like the fetch above, whenever the bus is uniform (runaway
	// lanes executing the all-zero instruction agree on the address, and
	// their reads mostly return the shared golden memory image).
	uaddr := true
	for _, wire := range core.DMemAddr {
		first := m.LaneWord(wire, 0)
		if first != 0 && first != ^uint64(0) {
			uaddr = false
			break
		}
		for g := 1; g < w; g++ {
			if m.LaneWord(wire, g) != first {
				uaddr = false
				break
			}
		}
		if !uaddr {
			break
		}
	}
	if uaddr {
		var a uint16
		for i, wire := range core.DMemAddr {
			a |= uint16(m.LaneWord(wire, 0)&1) << uint(i)
		}
		for l := 0; l < lanes; l++ {
			s.addr[l] = a
		}
	} else {
		m.GatherLanes(core.DMemAddr, s.addr)
	}
	anyWE := false
	for g := 0; g < w; g++ {
		s.weMask[g] = m.LaneWord(core.DMemWE, g)
		if s.weMask[g] != 0 {
			anyWE = true
		}
	}
	if !anyWE {
		for l := 0; l < lanes; l++ {
			s.rdata[l] = s.DMem[l][s.addr[l]]
		}
	} else {
		m.GatherLanes(core.DMemWData, s.wdata)
		for l := 0; l < lanes; l++ {
			a := s.addr[l]
			s.rdata[l] = s.DMem[l][a]
			if s.weMask[l>>6]>>(uint(l)&63)&1 == 1 {
				s.DMem[l][a] = s.wdata[l]
				s.WriteDigest[l] = sim.UpdateWriteDigest(s.WriteDigest[l], uint64(a), uint64(s.wdata[l]))
			}
		}
	}
	urdata := true
	for l := 1; l < lanes; l++ {
		if s.rdata[l] != s.rdata[0] {
			urdata = false
			break
		}
	}
	if urdata {
		for i, wire := range core.DMemRData {
			m.Broadcast(wire, s.rdata[0]>>uint(i)&1 == 1)
		}
	} else {
		m.ScatterLanes(core.DMemRData, s.rdata)
	}
}

// Step advances all lanes one clock cycle.
func (s *SystemW) Step() { s.M.Step(s.envFn) }

// CompactLanes packs the listed source lanes into lanes 0..len(src)-1,
// keeping the lane-private data memories and write digests aligned with
// the machine's lane permutation. src must be strictly increasing, which
// makes the in-place forward copy safe.
func (s *SystemW) CompactLanes(src []uint16) {
	s.M.CompactLanes(src)
	for i, l := range src {
		if int(l) != i {
			s.DMem[i] = s.DMem[l]
			s.WriteDigest[i] = s.WriteDigest[l]
		}
	}
}

// LaneState is one lane's complete suspended state: the packed wire bits
// of the machine (ExportLane) plus the lane-private memory image and write
// digest. It is target-specific; the campaign engine treats it as opaque.
type LaneState struct {
	Wires  []uint64
	DMem   [1 << DMemBits]uint16
	Digest uint64
}

// ExportLane snapshots one lane for migration to another SystemW of the
// same core and program (see MachineW.ExportLane).
func (s *SystemW) ExportLane(l int) *LaneState {
	st := &LaneState{Wires: make([]uint64, s.M.LaneWireWords()), DMem: s.DMem[l], Digest: s.WriteDigest[l]}
	s.M.ExportLane(l, st.Wires)
	return st
}

// ImportLane restores an ExportLane snapshot into one lane of this system.
func (s *SystemW) ImportLane(l int, st *LaneState) {
	s.M.ImportLane(l, st.Wires)
	s.DMem[l] = st.DMem
	s.WriteDigest[l] = st.Digest
}

// HaltedMaskG returns lane group g's halted lanes.
func (s *SystemW) HaltedMaskG(g int) uint64 { return s.M.LaneWord(s.Core.Halted, g) }

// LoadScalarState broadcasts a scalar checkpoint (flip-flop state, primary
// inputs, data memory, write digest) into every lane.
func (s *SystemW) LoadScalarState(ffs, inputs []bool, dmem [1 << DMemBits]uint16, digest uint64) {
	s.M.LoadState(ffs)
	s.M.LoadInputs(inputs)
	for l := range s.DMem {
		s.DMem[l] = dmem
		s.WriteDigest[l] = digest
	}
}

// PortLane reads the output port register of one lane.
func (s *SystemW) PortLane(l int) uint16 { return uint16(s.M.ReadBusLane(s.Core.Port, l)) }
