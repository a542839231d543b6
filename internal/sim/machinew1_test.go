package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// TestMachineW1MatchesScalarRandom: a width-1 MachineW with all lanes driven by
// the same inputs must agree with the scalar machine on every wire, every
// cycle, for random circuits and stimuli. Additionally, lanes driven with
// per-lane inputs must each match their own scalar reference.
func TestMachineW1MatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		nl := randomSyncCircuit(rng)
		scalar := New(nl)
		wide, err := NewMachineW(nl, 1)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < 32; cyc++ {
			ins := make([]bool, len(nl.Inputs))
			for i := range ins {
				ins[i] = rng.Intn(2) == 0
			}
			scalar.SetInputState(ins)
			scalar.EvalComb()
			wide.LoadInputs(ins)
			wide.EvalComb()
			for w := 0; w < nl.NumWires(); w++ {
				want := scalar.Value(netlist.WireID(w))
				lanes := wide.LaneWord(netlist.WireID(w), 0)
				if want && lanes != ^uint64(0) || !want && lanes != 0 {
					t.Fatalf("trial %d cycle %d wire %s: scalar %v lanes %016x",
						trial, cyc, nl.WireName(netlist.WireID(w)), want, lanes)
				}
			}
			scalar.CommitFFs()
			wide.CommitFFs()
		}
	}
}

// TestMachineW1LaneIsolation: flipping a flip-flop in lane 5 must change
// lane 5 only; all other lanes keep tracking the scalar reference.
func TestMachineW1LaneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nl := randomSyncCircuit(rng)
	if len(nl.FFs) == 0 {
		t.Fatal("need FFs")
	}
	scalar := New(nl)
	faulty := New(nl)
	wide, err := NewMachineW(nl, 1)
	if err != nil {
		t.Fatal(err)
	}

	ins := make([]bool, len(nl.Inputs))
	for i := range ins {
		ins[i] = rng.Intn(2) == 0
	}
	scalar.SetInputState(ins)
	faulty.SetInputState(ins)
	wide.LoadInputs(ins)

	// warm up 3 cycles
	for i := 0; i < 3; i++ {
		scalar.Step(NopEnv)
		faulty.Step(NopEnv)
		wide.Step(nil)
	}
	// inject into lane 5 and the scalar "faulty" reference
	ff := rng.Intn(len(nl.FFs))
	faulty.FlipFF(ff)
	wide.FlipLane(ff, 5)

	for cyc := 0; cyc < 16; cyc++ {
		scalar.Settle(NopEnv)
		faulty.Settle(NopEnv)
		wide.Settle(nil)
		for w := 0; w < nl.NumWires(); w++ {
			lanes := wide.LaneWord(netlist.WireID(w), 0)
			for l := 0; l < 64; l++ {
				got := lanes>>uint(l)&1 == 1
				var want bool
				if l == 5 {
					want = faulty.Value(netlist.WireID(w))
				} else {
					want = scalar.Value(netlist.WireID(w))
				}
				if got != want {
					t.Fatalf("cycle %d wire %d lane %d: got %v want %v", cyc, w, l, got, want)
				}
			}
		}
		scalar.CommitFFs()
		faulty.CommitFFs()
		wide.CommitFFs()
	}
}

func TestMachineW1Helpers(t *testing.T) {
	b := netlist.NewBuilder("helpers")
	in := b.Input("in")
	q := b.FF("q", in, true, "")
	out := b.Gate(cell.INV, q)
	b.MarkOutput(out)
	nl := b.MustNetlist()
	m, err := NewMachineW(nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LaneWord(q, 0) != ^uint64(0) {
		t.Fatal("init not broadcast")
	}
	m.Broadcast(in, true)
	if m.LaneWord(in, 0) != ^uint64(0) {
		t.Fatal("broadcast failed")
	}
	m.SetLaneWord(in, 0, 0xF0F0)
	m.EvalComb()
	bus := []netlist.WireID{in, q}
	if got := m.ReadBusLane(bus, 4); got != 0b11 {
		t.Fatalf("lane 4 bus = %b", got)
	}
	if got := m.ReadBusLane(bus, 0); got != 0b10 {
		t.Fatalf("lane 0 bus = %b", got)
	}
	m.Reset()
	if m.Cycle != 0 || m.LaneWord(in, 0) != 0 {
		t.Fatal("reset failed")
	}
}

// TestMachineW1GenericFallback: force the generic truth-table evaluator by
// comparing it against the direct implementations for every library cell.
func TestMachineW1GenericFallback(t *testing.T) {
	for _, c := range cell.All() {
		n := c.NumInputs()
		if n == 0 {
			continue
		}
		b := netlist.NewBuilder("gen")
		ins := make([]netlist.WireID, n)
		for i := range ins {
			ins[i] = b.Input("")
		}
		out := b.Gate(c.Kind, ins...)
		b.MarkOutput(out)
		nl := b.MustNetlist()
		m, err := NewMachineW(nl, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Drive lane l with input pattern l (patterns repeat beyond 2^n).
		for p := 0; p < n; p++ {
			var plane uint64
			for l := 0; l < 64; l++ {
				if (l>>uint(p))&1 == 1 {
					plane |= 1 << uint(l)
				}
			}
			m.SetLaneWord(ins[p], 0, plane)
		}
		m.EvalComb()
		direct := m.LaneWord(out, 0)
		generic := evalGeneric(&m.ops[len(m.ops)-1], m.values)
		if direct != generic {
			t.Errorf("%s: direct %016x != generic %016x", c.Name, direct, generic)
		}
		// And both must match the scalar truth table.
		for l := 0; l < 1<<n && l < 64; l++ {
			want := c.Eval(uint32(l))
			if direct>>uint(l)&1 == 1 != want {
				t.Errorf("%s lane %d: got %v want %v", c.Name, l, direct>>uint(l)&1 == 1, want)
			}
		}
	}
}

// randomSyncCircuit builds a random synchronous circuit (shared with the
// scalar tests' style).
func randomSyncCircuit(rng *rand.Rand) *netlist.Netlist {
	b := netlist.NewBuilder("rand64")
	var pool []netlist.WireID
	for i := 0; i < 5; i++ {
		pool = append(pool, b.Input(""))
	}
	var qs []netlist.WireID
	for i := 0; i < 6; i++ {
		q := b.FFPlaceholder("", rng.Intn(2) == 0, "ff")
		pool = append(pool, q)
		qs = append(qs, q)
	}
	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.NAND2, cell.OR2, cell.NOR2,
		cell.XOR2, cell.XNOR2, cell.MUX2, cell.AOI21, cell.OAI21, cell.MAJ3,
		cell.AND3, cell.OR4, cell.AOI22, cell.OAI22, cell.NAND4, cell.NOR3,
	}
	for i := 0; i < 60; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := cell.Lookup(k)
		inputs := make([]netlist.WireID, c.NumInputs())
		for p := range inputs {
			inputs[p] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, b.Gate(k, inputs...))
	}
	for _, q := range qs {
		b.SetFFD(q, pool[rng.Intn(len(pool))])
	}
	b.MarkOutput(pool[len(pool)-1])
	return b.MustNetlist()
}
