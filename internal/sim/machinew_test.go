package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netlist"
)

var testWidths = []int{1, 2, 4}

// TestMachineWMatchesWidth1Random: a width-W machine must agree, wire
// for wire and lane group for lane group, with independent width-1 machines
// driven by the same per-group stimuli — the W=1 kernel is the proven
// reference, so this pins evalProgram4 and the generic wide fallback to
// it on random circuits, per-lane inputs and per-lane fault injections.
func TestMachineWMatchesWidth1Random(t *testing.T) {
	for _, w := range testWidths {
		rng := rand.New(rand.NewSource(int64(4242 + w)))
		for trial := 0; trial < 6; trial++ {
			nl := randomSyncCircuit(rng)
			wide, err := NewMachineW(nl, w)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*MachineW, w)
			for g := range refs {
				if refs[g], err = NewMachineW(nl, 1); err != nil {
					t.Fatal(err)
				}
			}
			for cyc := 0; cyc < 24; cyc++ {
				for _, in := range nl.Inputs {
					for g := 0; g < w; g++ {
						v := rng.Uint64()
						wide.SetLaneWord(in, g, v)
						refs[g].SetLaneWord(in, 0, v)
					}
				}
				if cyc == 3 && len(nl.FFs) > 0 {
					ff := rng.Intn(len(nl.FFs))
					lane := rng.Intn(64 * w)
					wide.FlipLane(ff, lane)
					refs[lane>>6].FlipLane(ff, lane&63)
				}
				wide.Settle(nil)
				for g := 0; g < w; g++ {
					refs[g].Settle(nil)
				}
				for wid := 0; wid < nl.NumWires(); wid++ {
					for g := 0; g < w; g++ {
						got := wide.LaneWord(netlist.WireID(wid), g)
						want := refs[g].LaneWord(netlist.WireID(wid), 0)
						if got != want {
							t.Fatalf("W=%d trial %d cycle %d wire %d group %d: wide %016x, width-1 %016x",
								w, trial, cyc, wid, g, got, want)
						}
					}
				}
				wide.CommitFFs()
				for g := 0; g < w; g++ {
					refs[g].CommitFFs()
				}
			}
		}
	}
}

// TestDivergenceMaskGMatchesWidth1: for every width, DivergenceMaskG
// against a golden row must equal the group-0 DivergenceMaskG of an
// identically-driven width-1 reference for the matching lane group, with
// FlipLane as the divergence source.
func TestDivergenceMaskGMatchesWidth1(t *testing.T) {
	for _, w := range testWidths {
		rng := rand.New(rand.NewSource(int64(77 + w)))
		nl := randomSyncCircuit(rng)
		if len(nl.FFs) == 0 {
			t.Fatal("need FFs")
		}
		// Golden row: the settled wire values of an undisturbed scalar run.
		golden := New(nl)
		ins := make([]bool, len(nl.Inputs))
		for i := range ins {
			ins[i] = rng.Intn(2) == 0
		}
		golden.SetInputState(ins)
		golden.Settle(NopEnv)
		tr := NewTrace(nl.NumWires())
		tr.Append(golden.Values())
		row := tr.Row(0)

		wide, err := NewMachineW(nl, w)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*MachineW, w)
		for g := range refs {
			if refs[g], err = NewMachineW(nl, 1); err != nil {
				t.Fatal(err)
			}
		}
		wide.LoadInputs(ins)
		for g := 0; g < w; g++ {
			refs[g].LoadInputs(ins)
		}
		// Flip a few random (FF, lane) pairs in both machines.
		for k := 0; k < 3*w; k++ {
			ff := rng.Intn(len(nl.FFs))
			lane := rng.Intn(64 * w)
			wide.FlipLane(ff, lane)
			refs[lane>>6].FlipLane(ff, lane&63)
		}
		wide.Settle(nil)
		for g := 0; g < w; g++ {
			refs[g].Settle(nil)
		}
		for _, interest := range []uint64{^uint64(0), 0xF0F0F0F0F0F0F0F0, 1, 0} {
			for g := 0; g < w; g++ {
				got := wide.DivergenceMaskG(row, interest, g)
				want := refs[g].DivergenceMaskG(row, interest, 0)
				if got != want {
					t.Fatalf("W=%d group %d interest %016x: wide %016x, width-1 %016x",
						w, g, interest, got, want)
				}
			}
		}
	}
}

// TestWideTransposeRoundTrip: GatherLanes/ScatterLanes across widths must
// agree with the per-lane reference (ReadBusLane) and round-trip exactly.
func TestWideTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for _, w := range testWidths {
		for width := 1; width <= 16; width += 3 {
			b := netlist.NewBuilder("busw")
			bus := make([]netlist.WireID, width)
			for i := range bus {
				bus[i] = b.Input("")
			}
			b.MarkOutput(bus[0])
			m, err := NewMachineW(b.MustNetlist(), w)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 4; trial++ {
				for _, wire := range bus {
					for g := 0; g < w; g++ {
						m.SetLaneWord(wire, g, rng.Uint64())
					}
				}
				got := make([]uint16, 64*w)
				m.GatherLanes(bus, got)
				for l := 0; l < 64*w; l++ {
					if want := uint16(m.ReadBusLane(bus, l)); got[l] != want {
						t.Fatalf("W=%d width %d lane %d: GatherLanes %04x, ReadBusLane %04x", w, width, l, got[l], want)
					}
				}
				vals := make([]uint16, 64*w)
				for l := range vals {
					vals[l] = uint16(rng.Uint32()) & (1<<uint(width) - 1)
				}
				m.ScatterLanes(bus, vals)
				back := make([]uint16, 64*w)
				m.GatherLanes(bus, back)
				for l := range vals {
					if back[l] != vals[l] {
						t.Fatalf("W=%d width %d lane %d: round trip %04x, want %04x", w, width, l, back[l], vals[l])
					}
				}
			}
		}
	}
}

// FuzzGatherScatterW fuzzes the wide gather/scatter transpose against the
// bit-by-bit reference: scatter arbitrary lane values at an arbitrary
// width, check every plane bit, gather back, demand the exact input.
func FuzzGatherScatterW(f *testing.F) {
	f.Add(uint8(4), uint8(11), uint64(0xDEADBEEFCAFEF00D), uint64(0x0123456789ABCDEF))
	f.Add(uint8(1), uint8(16), ^uint64(0), uint64(0))
	f.Add(uint8(2), uint8(1), uint64(1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, wRaw, widthRaw uint8, seedA, seedB uint64) {
		w := int(wRaw)%4 + 1
		width := int(widthRaw)%16 + 1
		b := netlist.NewBuilder("fuzzbus")
		bus := make([]netlist.WireID, width)
		for i := range bus {
			bus[i] = b.Input("")
		}
		b.MarkOutput(bus[0])
		m, err := NewMachineW(b.MustNetlist(), w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seedA ^ seedB)))
		vals := make([]uint16, 64*w)
		for l := range vals {
			vals[l] = uint16(rng.Uint32()) & (1<<uint(width) - 1)
		}
		m.ScatterLanes(bus, vals)
		for i, wire := range bus {
			for l := 0; l < 64*w; l++ {
				got := m.LaneWord(wire, l>>6)>>(uint(l)&63)&1 == 1
				want := vals[l]>>uint(i)&1 == 1
				if got != want {
					t.Fatalf("W=%d width %d wire %d lane %d: plane bit %v, want %v", w, width, i, l, got, want)
				}
			}
		}
		back := make([]uint16, 64*w)
		m.GatherLanes(bus, back)
		for l := range vals {
			if back[l] != vals[l] {
				t.Fatalf("W=%d width %d lane %d: gather %04x, want %04x", w, width, l, back[l], vals[l])
			}
		}
	})
}

// TestCompactLanesMatchesFullWidth: compacting a subset of lanes must (a)
// move each listed lane's state verbatim into its packed slot, and (b)
// keep the compacted machine cycle-accurate against a full-width machine
// that never compacted — lane i of the compacted machine tracks lane
// src[i] of the reference under identical per-lane stimuli. The subset
// sizes are chosen to land on every active-group count, so the unrolled
// one-, two- and three-group kernels are all exercised against the proven
// four-group one.
func TestCompactLanesMatchesFullWidth(t *testing.T) {
	const w = 4
	for _, n := range []int{3, 64, 65, 128, 129, 192, 200} {
		rng := rand.New(rand.NewSource(int64(909 + n)))
		nl := randomSyncCircuit(rng)
		wide, err := NewMachineW(nl, w)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMachineW(nl, w)
		if err != nil {
			t.Fatal(err)
		}

		// Warm both machines with identical random stimuli.
		step := func() {
			for _, in := range nl.Inputs {
				for g := 0; g < w; g++ {
					v := rng.Uint64()
					wide.SetLaneWord(in, g, v)
					ref.SetLaneWord(in, g, v)
				}
			}
			wide.Settle(nil)
			ref.Settle(nil)
			wide.CommitFFs()
			ref.CommitFFs()
		}
		for cyc := 0; cyc < 6; cyc++ {
			step()
		}

		// Random strictly increasing lane subset of size n.
		perm := rng.Perm(64 * w)[:n]
		sort.Ints(perm)
		src := make([]uint16, n)
		for i, l := range perm {
			src[i] = uint16(l)
		}
		wide.CompactLanes(src)
		if got, want := wide.ActiveGroups(), (n+63)/64; got != want {
			t.Fatalf("n=%d: ActiveGroups = %d, want %d", n, got, want)
		}

		laneBit := func(m *MachineW, wid, lane int) uint64 {
			return m.LaneWord(netlist.WireID(wid), lane>>6) >> (uint(lane) & 63) & 1
		}
		check := func(stage string) {
			for wid := 0; wid < nl.NumWires(); wid++ {
				for i, l := range src {
					if got, want := laneBit(wide, wid, i), laneBit(ref, wid, int(l)); got != want {
						t.Fatalf("n=%d %s wire %d: compacted lane %d = %d, reference lane %d = %d",
							n, stage, wid, i, got, l, want)
					}
				}
			}
		}
		check("after compaction")

		// Continue both machines: the compacted one sees, per packed lane,
		// exactly the stimulus its source lane gets in the reference.
		for cyc := 0; cyc < 8; cyc++ {
			for _, in := range nl.Inputs {
				var words [w]uint64
				for g := 0; g < w; g++ {
					v := rng.Uint64()
					ref.SetLaneWord(in, g, v)
					words[g] = v
				}
				var packed [w]uint64
				for i, l := range src {
					packed[i>>6] |= words[l>>6] >> (l & 63) & 1 << (uint(i) & 63)
				}
				for g := 0; g < wide.ActiveGroups(); g++ {
					wide.SetLaneWord(in, g, packed[g])
				}
			}
			if cyc == 2 && len(nl.FFs) > 0 {
				ff := rng.Intn(len(nl.FFs))
				i := rng.Intn(n)
				wide.FlipLane(ff, i)
				ref.FlipLane(ff, int(src[i]))
			}
			wide.Settle(nil)
			ref.Settle(nil)
			check("settled")
			wide.CommitFFs()
			ref.CommitFFs()
		}

		// LoadState must restore the full width.
		wide.LoadState(make([]bool, len(nl.FFs)))
		if wide.ActiveGroups() != w {
			t.Fatalf("LoadState did not restore the full width: %d", wide.ActiveGroups())
		}
	}
}
