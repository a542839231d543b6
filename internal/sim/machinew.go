package sim

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// MachineW is the width-parameterized wide-word machine: every wire
// carries W uint64 lane words (64·W lanes total), so one combinational
// pass advances 64·W circuit instances. This is the classic parallel
// fault-simulation technique, and it plays the role of the paper's
// hardware parallelism ("one FI controller distributes the FI campaign
// over several FPGAs"): the HAFI campaign controller batches injection
// experiments that share a start checkpoint into one machine run. The
// batched campaign engine runs W=4 (256 lanes) by default.
//
// Layout: values is wire-major with stride W — values[int(w)*W+g] is lane
// group g (lanes 64g..64g+63) of wire w. The evaluation program indices
// are pre-scaled by W at construction, so the dense kernels index
// v[o.out]..v[o.out+W-1] without a per-access multiply, and the W=1
// program is bit-for-bit the classic 64-lane program.
//
// Width parameterization is deliberately NOT done with Go generics: a
// type parameter cannot range over array lengths ([1]uint64|[4]uint64 has
// no core type, so elements cannot be indexed), and GCshape dictionaries
// would put an indirect call in the hottest loop of the repository. The
// stride-W layout with a hand-unrolled W=4 kernel benchmarks cleaner.
type MachineW struct {
	NL     *netlist.Netlist
	W      int
	Cycle  int
	values []uint64

	// ag is the number of active lane groups (1 <= ag <= W). CompactLanes
	// shrinks it after packing live lanes into the low groups; Reset and
	// LoadState restore the full width. The dense kernels, flip-flop
	// commit and bus transposes only touch groups < ag, which is what
	// makes a batch whose lanes have mostly retired cheap to finish.
	ag int

	cscratch []uint64 // CompactLanes per-wire staging, len W

	ops     []op64 // out/in pre-scaled by W
	runs    []opRun
	envOps  []op64 // subprogram: gates downstream of env-written wires
	envRuns []opRun

	ffD, ffQ   []int32  // unscaled wire ids (golden-row lookups)
	ffDs, ffQs []int32  // pre-scaled (wire*W)
	ffNext     []uint64 // len FFs*W
}

// NewMachineW creates a 64·W-lane machine and resets it. w must be >= 1;
// w=1 is the classic 64-lane machine.
func NewMachineW(nl *netlist.Netlist, w int) (*MachineW, error) {
	if w < 1 {
		return nil, fmt.Errorf("sim: machine width %d out of range (want >= 1)", w)
	}
	m := &MachineW{NL: nl, W: w, ag: w, values: make([]uint64, nl.NumWires()*w), cscratch: make([]uint64, w)}
	level := make([]int32, nl.NumWires())
	for _, gi := range nl.EvalOrder() {
		g := &nl.Gates[gi]
		if g.Cell.NumInputs() > 4 {
			return nil, fmt.Errorf("sim: cell %s has more than 4 inputs; not supported by the lane-parallel evaluator", g.Cell.Name)
		}
		o := op64{kind: g.Cell.Kind, tt: g.Cell.TruthTable(), out: int32(g.Output), numPins: int8(len(g.Inputs))}
		for p, w := range g.Inputs {
			o.in[p] = int32(w)
			if level[w] >= o.level {
				o.level = level[w] + 1
			}
		}
		level[g.Output] = o.level
		m.ops = append(m.ops, o)
	}
	// Level-major, kind-minor order: equal-level gates are independent, so
	// grouping them by kind is a legal reordering of the topological sort.
	sort.SliceStable(m.ops, func(a, b int) bool {
		if m.ops[a].level != m.ops[b].level {
			return m.ops[a].level < m.ops[b].level
		}
		return m.ops[a].kind < m.ops[b].kind
	})
	// Pre-scale the program indices by the machine width (no-op at W=1).
	if w > 1 {
		for i := range m.ops {
			o := &m.ops[i]
			o.out *= int32(w)
			for p := 0; p < int(o.numPins); p++ {
				o.in[p] *= int32(w)
			}
		}
	}
	m.runs = buildRuns(m.ops)
	m.ffD = make([]int32, len(nl.FFs))
	m.ffQ = make([]int32, len(nl.FFs))
	m.ffDs = make([]int32, len(nl.FFs))
	m.ffQs = make([]int32, len(nl.FFs))
	m.ffNext = make([]uint64, len(nl.FFs)*w)
	for i := range nl.FFs {
		m.ffD[i] = int32(nl.FFs[i].D)
		m.ffQ[i] = int32(nl.FFs[i].Q)
		m.ffDs[i] = int32(nl.FFs[i].D) * int32(w)
		m.ffQs[i] = int32(nl.FFs[i].Q) * int32(w)
	}
	m.Reset()
	return m, nil
}

// NumLanes returns the total lane count (64·W).
func (m *MachineW) NumLanes() int { return 64 * m.W }

// ActiveGroups returns the number of live lane groups (W until CompactLanes
// shrinks it; Reset/LoadState restore the full width).
func (m *MachineW) ActiveGroups() int { return m.ag }

// ActiveLanes returns the number of live lanes (64·ActiveGroups).
func (m *MachineW) ActiveLanes() int { return 64 * m.ag }

// CompactLanes packs the listed source lanes into lanes 0..len(src)-1 (in
// order) and shrinks the active group count to cover them — the
// sparse-lane primitive that lets a wide batch stop simulating lanes whose
// experiments have finished. src must be strictly increasing (so the
// in-place pack never overwrites a lane it still has to read) and
// non-empty; lanes beyond the new active range hold garbage until the next
// Reset/LoadState restores the full width.
func (m *MachineW) CompactLanes(src []uint16) {
	n := len(src)
	if n == 0 || n > m.ActiveLanes() {
		panic("sim: CompactLanes lane list out of range")
	}
	w := m.W
	newAG := (n + 63) >> 6
	sc := m.cscratch
	for base := 0; base < len(m.values); base += w {
		vals := m.values[base : base+w]
		for g := 0; g < newAG; g++ {
			sc[g] = 0
		}
		for i, s := range src {
			sc[i>>6] |= vals[s>>6] >> (s & 63) & 1 << (uint(i) & 63)
		}
		copy(vals[:newAG], sc[:newAG])
	}
	m.ag = newAG
}

// LaneWireWords returns the length of an ExportLane snapshot: the wire
// count packed one bit per wire.
func (m *MachineW) LaneWireWords() int { return (m.NL.NumWires() + 63) / 64 }

// ExportLane copies one lane's complete wire state (flip-flops, primary
// inputs and settled combinational values alike) into dst, one bit per
// wire (len(dst) >= LaneWireWords()). Together with ImportLane it lets a
// lane migrate between wide machines of the same netlist — the campaign
// engine uses this to pull long-running straggler lanes out of nearly
// drained batches and finish them together in one packed device.
func (m *MachineW) ExportLane(lane int, dst []uint64) {
	w, g, sh := m.W, lane>>6, uint(lane)&63
	nw := m.NL.NumWires()
	for i := 0; i < (nw+63)/64; i++ {
		dst[i] = 0
	}
	for wi := 0; wi < nw; wi++ {
		dst[wi>>6] |= m.values[wi*w+g] >> sh & 1 << (uint(wi) & 63)
	}
}

// ImportLane drives one lane's complete wire state from an ExportLane
// snapshot (possibly taken on a machine of a different width). The lane
// must lie inside the active groups; other lanes are untouched. Because
// the snapshot holds settled values, the imported lane is consistent
// without a Settle — exactly as the exporting machine left it.
func (m *MachineW) ImportLane(lane int, src []uint64) {
	w, g := m.W, lane>>6
	bit := uint64(1) << (uint(lane) & 63)
	nw := m.NL.NumWires()
	for wi := 0; wi < nw; wi++ {
		if src[wi>>6]>>(uint(wi)&63)&1 == 1 {
			m.values[wi*w+g] |= bit
		} else {
			m.values[wi*w+g] &^= bit
		}
	}
}

// FFStateLane snapshots one lane's stored flip-flop state in the scalar
// Machine.FFState format (index i = flip-flop i).
func (m *MachineW) FFStateLane(lane int) []bool {
	s := make([]bool, len(m.ffQs))
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i := range s {
		s[i] = m.values[int(m.ffQs[i])+g]&bit != 0
	}
	return s
}

// InputStateLane snapshots one lane's primary-input values in the scalar
// Machine.InputState format (index i = NL.Inputs[i]).
func (m *MachineW) InputStateLane(lane int) []bool {
	s := make([]bool, len(m.NL.Inputs))
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i, w := range m.NL.Inputs {
		s[i] = m.values[int(w)*m.W+g]&bit != 0
	}
	return s
}

// Reset initialises every lane with the flip-flop reset state.
func (m *MachineW) Reset() {
	m.ag = m.W
	for i := range m.values {
		m.values[i] = 0
	}
	for i := range m.NL.FFs {
		if m.NL.FFs[i].Init {
			base := int(m.ffQs[i])
			for g := 0; g < m.W; g++ {
				m.values[base+g] = ^uint64(0)
			}
		}
	}
	m.Cycle = 0
}

// LaneWord returns lane group g of a wire (bit l = lane 64g+l).
func (m *MachineW) LaneWord(w netlist.WireID, g int) uint64 { return m.values[int(w)*m.W+g] }

// SetLaneWord drives lane group g of a wire.
func (m *MachineW) SetLaneWord(w netlist.WireID, g int, v uint64) { m.values[int(w)*m.W+g] = v }

// Broadcast drives a wire to the same value in every lane.
func (m *MachineW) Broadcast(w netlist.WireID, v bool) {
	var x uint64
	if v {
		x = ^uint64(0)
	}
	base := int(w) * m.W
	for g := 0; g < m.W; g++ {
		m.values[base+g] = x
	}
}

// FlipLane flips the stored value of flip-flop ffIndex in one lane only —
// the lane-parallel SEU injection primitive. lane ranges over [0, 64·W).
func (m *MachineW) FlipLane(ffIndex, lane int) {
	m.values[int(m.ffQs[ffIndex])+lane>>6] ^= 1 << (uint(lane) & 63)
}

// FFLane reads the stored value of flip-flop ffIndex in one lane.
func (m *MachineW) FFLane(ffIndex, lane int) bool {
	return m.values[int(m.ffQs[ffIndex])+lane>>6]>>(uint(lane)&63)&1 == 1
}

// LoadState broadcasts a scalar flip-flop snapshot (from Machine.FFState)
// into every lane and restores the full lane width after a CompactLanes.
func (m *MachineW) LoadState(ffs []bool) {
	m.ag = m.W
	for i, v := range ffs {
		var x uint64
		if v {
			x = ^uint64(0)
		}
		base := int(m.ffQs[i])
		for g := 0; g < m.W; g++ {
			m.values[base+g] = x
		}
	}
}

// LoadInputs broadcasts scalar primary-input values into every lane.
func (m *MachineW) LoadInputs(ins []bool) {
	for i, w := range m.NL.Inputs {
		m.Broadcast(w, ins[i])
	}
}

// EvalComb evaluates all gates once across the active lane groups.
func (m *MachineW) EvalComb() { evalProgramW(m.ops, m.runs, m.values, m.ag) }

// SetEnvWrites declares the complete set of wires the lane environment may
// drive between the two settle passes. The machine precomputes the cone of
// gates downstream of those wires; Settle's second pass then evaluates
// only that subprogram — every other gate's inputs are untouched by the
// environment, so its pass-one output is already final. Calling this with
// an incomplete wire list yields stale simulations; leave it unset to keep
// the safe full second pass.
func (m *MachineW) SetEnvWrites(wires ...[]netlist.WireID) {
	// inCone is indexed by the pre-scaled wire index (wire*W), matching the
	// op program, so the same code serves every width.
	inCone := make([]bool, m.NL.NumWires()*m.W)
	for _, ws := range wires {
		for _, w := range ws {
			inCone[int(w)*m.W] = true
		}
	}
	m.envOps = nil
	for i := range m.ops {
		o := &m.ops[i]
		hit := false
		for p := 0; p < int(o.numPins); p++ {
			if inCone[o.in[p]] {
				hit = true
				break
			}
		}
		if hit {
			inCone[o.out] = true
			m.envOps = append(m.envOps, *o)
		}
	}
	m.envRuns = buildRuns(m.envOps)
}

// EnvConeSize reports how many gates the restricted second settle pass
// evaluates (0 when SetEnvWrites was never called).
func (m *MachineW) EnvConeSize() int { return len(m.envOps) }

// DivergenceMaskG compares lane group g's stored flip-flop state against a
// packed golden wire row (as returned by Trace.Row for the same cycle):
// bit l of the result is set when lane 64g+l differs from the golden
// reference in at least one flip-flop. Only the lanes in interest are
// reported, and the scan stops as soon as every interesting lane has
// diverged — the common case for freshly injected faults.
func (m *MachineW) DivergenceMaskG(goldenRow []uint64, interest uint64, g int) uint64 {
	var div uint64
	v := m.values
	for i, q := range m.ffQ {
		gb := goldenRow[q>>6] >> (uint(q) & 63) & 1
		div |= v[int(m.ffQs[i])+g] ^ -gb
		if div&interest == interest {
			break
		}
	}
	return div & interest
}

// FFDivergedLane reports whether flip-flop ffIndex of one lane differs
// from a packed golden wire row. It is the O(1) steady-state half of the
// campaign engine's watched-flip-flop convergence filter: a lane whose
// last known diverged flip-flop still differs cannot have converged, so
// the full FirstDivergedFF scan is skipped for it.
func (m *MachineW) FFDivergedLane(ffIndex, lane int, goldenRow []uint64) bool {
	q := m.ffQ[ffIndex]
	gb := goldenRow[q>>6] >> (uint(q) & 63) & 1
	return m.values[int(m.ffQs[ffIndex])+lane>>6]>>(uint(lane)&63)&1 != gb
}

// FirstDivergedFF returns the index of the first flip-flop in which one
// lane differs from a packed golden wire row, or -1 when the lane's full
// flip-flop state matches the reference — the convergence test, fused
// with finding the next watched flip-flop for FFDivergedLane.
func (m *MachineW) FirstDivergedFF(lane int, goldenRow []uint64) int {
	g, sh := lane>>6, uint(lane)&63
	for i, q := range m.ffQ {
		gb := goldenRow[q>>6] >> (uint(q) & 63) & 1
		if m.values[int(m.ffQs[i])+g]>>sh&1 != gb {
			return i
		}
	}
	return -1
}

// CommitFFs clocks every flip-flop in the active lanes.
func (m *MachineW) CommitFFs() {
	if m.W == 1 {
		// Keep the 64-lane fast path as tight as possible.
		for i, d := range m.ffD {
			m.ffNext[i] = m.values[d]
		}
		for i, q := range m.ffQ {
			m.values[q] = m.ffNext[i]
		}
	} else {
		// Unrolled per active-group-count staging: the generic copy()
		// variant spends its time in memmove call overhead at these tiny
		// lengths. ffNext is scratch, so the narrow cases pack it densely.
		nx, v := m.ffNext, m.values
		switch m.ag {
		case 1:
			for i, d := range m.ffDs {
				nx[i] = v[d]
			}
			for i, q := range m.ffQs {
				v[q] = nx[i]
			}
		case 2:
			for i, d := range m.ffDs {
				nx[2*i], nx[2*i+1] = v[d], v[d+1]
			}
			for i, q := range m.ffQs {
				v[q], v[q+1] = nx[2*i], nx[2*i+1]
			}
		case 3:
			for i, d := range m.ffDs {
				nx[3*i], nx[3*i+1], nx[3*i+2] = v[d], v[d+1], v[d+2]
			}
			for i, q := range m.ffQs {
				v[q], v[q+1], v[q+2] = nx[3*i], nx[3*i+1], nx[3*i+2]
			}
		case 4:
			for i, d := range m.ffDs {
				nx[4*i], nx[4*i+1], nx[4*i+2], nx[4*i+3] = v[d], v[d+1], v[d+2], v[d+3]
			}
			for i, q := range m.ffQs {
				v[q], v[q+1], v[q+2], v[q+3] = nx[4*i], nx[4*i+1], nx[4*i+2], nx[4*i+3]
			}
		default:
			w, ag := m.W, m.ag
			for i, d := range m.ffDs {
				copy(nx[i*w:i*w+ag], v[d:int(d)+ag])
			}
			for i, q := range m.ffQs {
				copy(v[q:int(q)+ag], nx[i*w:i*w+ag])
			}
		}
	}
	m.Cycle++
}

// EnvW services the environment of all 64·W lanes between the two
// evaluation passes (per-lane memories, per-lane read data).
type EnvW interface {
	SetInputsW(m *MachineW)
}

// EnvWFunc adapts a function to EnvW.
type EnvWFunc func(m *MachineW)

// SetInputsW implements EnvW.
func (f EnvWFunc) SetInputsW(m *MachineW) { f(m) }

// Settle runs the two-pass evaluation with the lane environment. When
// SetEnvWrites has declared the environment's write set, the second pass
// evaluates only the downstream cone of those wires.
func (m *MachineW) Settle(env EnvW) {
	m.EvalComb()
	if env != nil {
		env.SetInputsW(m)
		if m.envOps != nil {
			evalProgramW(m.envOps, m.envRuns, m.values, m.ag)
		} else {
			m.EvalComb()
		}
	}
}

// Step advances one clock cycle in all lanes.
func (m *MachineW) Step(env EnvW) {
	m.Settle(env)
	m.CommitFFs()
}

// ReadBusLane assembles the value of a bus in one lane (lane < 64·W).
func (m *MachineW) ReadBusLane(bus []netlist.WireID, lane int) uint64 {
	var v uint64
	g := lane >> 6
	bit := uint64(1) << (uint(lane) & 63)
	for i, w := range bus {
		if m.values[int(w)*m.W+g]&bit != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// evalProgramW dispatches the dense kernel for the active group count:
// the classic 64-lane program at one group (indices are pre-scaled by W,
// so it evaluates group 0 correctly at any stride), hand-unrolled kernels
// for two to four groups, and a generic per-group loop beyond that. After
// lane compaction a wide machine walks down this ladder as its batch
// drains.
func evalProgramW(ops []op64, runs []opRun, v []uint64, w int) {
	switch w {
	case 1:
		evalProgram(ops, runs, v)
	case 2:
		evalProgram2(ops, runs, v)
	case 3:
		evalProgram3(ops, runs, v)
	case 4:
		evalProgram4(ops, runs, v)
	default:
		evalProgramN(ops, v, w)
	}
}

// evalProgramN is the generic-width dense kernel (any W): one kind switch
// per op per group. Only non-default widths (e.g. W=2 in the property
// tests) pay its dispatch cost.
func evalProgramN(ops []op64, v []uint64, w int) {
	for i := range ops {
		o := &ops[i]
		for g := int32(0); g < int32(w); g++ {
			v[o.out+g] = evalOpG(o, v, g)
		}
	}
}

// evalOpG evaluates one op for lane group g (indices pre-scaled).
func evalOpG(o *op64, v []uint64, g int32) uint64 {
	var in [4]uint64
	for p := 0; p < int(o.numPins); p++ {
		in[p] = v[o.in[p]+g]
	}
	return evalOpWords(o, &in)
}

// evalOpWords evaluates one op given its input lane words — the
// single-word gate kernel of the generic dense path.
func evalOpWords(o *op64, in *[4]uint64) uint64 {
	switch o.kind {
	case cell.TIE0:
		return 0
	case cell.TIE1:
		return ^uint64(0)
	case cell.BUF:
		return in[0]
	case cell.INV:
		return ^in[0]
	case cell.AND2:
		return in[0] & in[1]
	case cell.AND3:
		return in[0] & in[1] & in[2]
	case cell.AND4:
		return in[0] & in[1] & in[2] & in[3]
	case cell.NAND2:
		return ^(in[0] & in[1])
	case cell.NAND3:
		return ^(in[0] & in[1] & in[2])
	case cell.NAND4:
		return ^(in[0] & in[1] & in[2] & in[3])
	case cell.OR2:
		return in[0] | in[1]
	case cell.OR3:
		return in[0] | in[1] | in[2]
	case cell.OR4:
		return in[0] | in[1] | in[2] | in[3]
	case cell.NOR2:
		return ^(in[0] | in[1])
	case cell.NOR3:
		return ^(in[0] | in[1] | in[2])
	case cell.NOR4:
		return ^(in[0] | in[1] | in[2] | in[3])
	case cell.XOR2:
		return in[0] ^ in[1]
	case cell.XNOR2:
		return ^(in[0] ^ in[1])
	case cell.MUX2:
		return (^in[2] & in[0]) | (in[2] & in[1])
	case cell.AOI21:
		return ^((in[0] & in[1]) | in[2])
	case cell.AOI22:
		return ^((in[0] & in[1]) | (in[2] & in[3]))
	case cell.OAI21:
		return ^((in[0] | in[1]) & in[2])
	case cell.OAI22:
		return ^((in[0] | in[1]) & (in[2] | in[3]))
	case cell.MAJ3:
		return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2])
	default:
		// Generic fallback: Shannon expansion over the truth table.
		var out uint64
		n := int(o.numPins)
		for minterm := 0; minterm < 1<<n; minterm++ {
			if o.tt>>uint(minterm)&1 == 0 {
				continue
			}
			term := ^uint64(0)
			for p := 0; p < n; p++ {
				if minterm>>uint(p)&1 == 1 {
					term &= in[p]
				} else {
					term &= ^in[p]
				}
			}
			out |= term
		}
		return out
	}
}

// at4 views four consecutive lane words as one 256-lane wide word.
func at4(v []uint64, i int32) *[4]uint64 { return (*[4]uint64)(v[i:]) }

// evalProgram4 is the hand-unrolled W=4 (256-lane) dense kernel: the same
// kind-grouped dispatch as evalProgram, four lane words per wire. The
// 4-element array expressions compile to straight-line loads/ops/stores
// (and vectorize where the ISA allows), which benchmarked ahead of both a
// generics-based and an inner-loop variant.
func evalProgram4(ops []op64, runs []opRun, v []uint64) {
	for _, r := range runs {
		seg := ops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				d := at4(v, seg[i].out)
				d[0], d[1], d[2], d[3] = 0, 0, 0, 0
			}
		case cell.TIE1:
			for i := range seg {
				d := at4(v, seg[i].out)
				d[0], d[1], d[2], d[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			}
		case cell.BUF:
			for i := range seg {
				o := &seg[i]
				a, d := at4(v, o.in[0]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0], a[1], a[2], a[3]
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				a, d := at4(v, o.in[0]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
			}
		case cell.AND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]&b[0]&c[0], a[1]&b[1]&c[1], a[2]&b[2]&c[2], a[3]&b[3]&c[3]
			}
		case cell.AND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]&b[0]&c[0]&e[0], a[1]&b[1]&c[1]&e[1], a[2]&b[2]&c[2]&e[2], a[3]&b[3]&c[3]&e[3]
			}
		case cell.NAND2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
			}
		case cell.NAND3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0] & c[0]), ^(a[1] & b[1] & c[1]), ^(a[2] & b[2] & c[2]), ^(a[3] & b[3] & c[3])
			}
		case cell.NAND4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0] & c[0] & e[0]), ^(a[1] & b[1] & c[1] & e[1]), ^(a[2] & b[2] & c[2] & e[2]), ^(a[3] & b[3] & c[3] & e[3])
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
			}
		case cell.OR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]|b[0]|c[0], a[1]|b[1]|c[1], a[2]|b[2]|c[2], a[3]|b[3]|c[3]
			}
		case cell.OR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]|b[0]|c[0]|e[0], a[1]|b[1]|c[1]|e[1], a[2]|b[2]|c[2]|e[2], a[3]|b[3]|c[3]|e[3]
			}
		case cell.NOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
			}
		case cell.NOR3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0] | c[0]), ^(a[1] | b[1] | c[1]), ^(a[2] | b[2] | c[2]), ^(a[3] | b[3] | c[3])
			}
		case cell.NOR4:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0] | c[0] | e[0]), ^(a[1] | b[1] | c[1] | e[1]), ^(a[2] | b[2] | c[2] | e[2]), ^(a[3] | b[3] | c[3] | e[3])
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				a, b, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
			}
		case cell.MUX2:
			for i := range seg {
				o := &seg[i]
				a, b, s, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0] = a[0] ^ (s[0] & (a[0] ^ b[0]))
				d[1] = a[1] ^ (s[1] & (a[1] ^ b[1]))
				d[2] = a[2] ^ (s[2] & (a[2] ^ b[2]))
				d[3] = a[3] ^ (s[3] & (a[3] ^ b[3]))
			}
		case cell.AOI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^((a[0] & b[0]) | c[0]), ^((a[1] & b[1]) | c[1]), ^((a[2] & b[2]) | c[2]), ^((a[3] & b[3]) | c[3])
			}
		case cell.AOI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0] = ^((a[0] & b[0]) | (c[0] & e[0]))
				d[1] = ^((a[1] & b[1]) | (c[1] & e[1]))
				d[2] = ^((a[2] & b[2]) | (c[2] & e[2]))
				d[3] = ^((a[3] & b[3]) | (c[3] & e[3]))
			}
		case cell.OAI21:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0], d[1], d[2], d[3] = ^((a[0] | b[0]) & c[0]), ^((a[1] | b[1]) & c[1]), ^((a[2] | b[2]) & c[2]), ^((a[3] | b[3]) & c[3])
			}
		case cell.OAI22:
			for i := range seg {
				o := &seg[i]
				a, b, c, e, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.in[3]), at4(v, o.out)
				d[0] = ^((a[0] | b[0]) & (c[0] | e[0]))
				d[1] = ^((a[1] | b[1]) & (c[1] | e[1]))
				d[2] = ^((a[2] | b[2]) & (c[2] | e[2]))
				d[3] = ^((a[3] | b[3]) & (c[3] | e[3]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c, d := at4(v, o.in[0]), at4(v, o.in[1]), at4(v, o.in[2]), at4(v, o.out)
				d[0] = (a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])
				d[1] = (a[1] & b[1]) | (a[1] & c[1]) | (b[1] & c[1])
				d[2] = (a[2] & b[2]) | (a[2] & c[2]) | (b[2] & c[2])
				d[3] = (a[3] & b[3]) | (a[3] & c[3]) | (b[3] & c[3])
			}
		default:
			for i := range seg {
				o := &seg[i]
				for g := int32(0); g < 4; g++ {
					v[o.out+g] = evalOpG(o, v, g)
				}
			}
		}
	}
}
