package sim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// TestBusTranspose sweeps every supported bus width and checks both
// transpose directions against the per-lane reference (ReadBusLane and
// bit-by-bit plane assembly) on random lane data.
func TestBusTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for width := 1; width <= 16; width++ {
		b := netlist.NewBuilder("bus")
		bus := make([]netlist.WireID, width)
		for i := range bus {
			bus[i] = b.Input("")
		}
		b.MarkOutput(bus[0])
		m, err := NewMachineW(b.MustNetlist(), 1)
		if err != nil {
			t.Fatal(err)
		}

		for trial := 0; trial < 8; trial++ {
			for _, w := range bus {
				m.SetLaneWord(w, 0, rng.Uint64())
			}

			var got [64]uint16
			m.GatherBusG(bus, 0, &got)
			for l := 0; l < 64; l++ {
				if want := uint16(m.ReadBusLane(bus, l)); got[l] != want {
					t.Fatalf("width %d lane %d: GatherBusG %04x, ReadBusLane %04x", width, l, got[l], want)
				}
			}

			var vals [64]uint16
			for l := range vals {
				vals[l] = uint16(rng.Uint32()) & (1<<uint(width) - 1)
			}
			m.ScatterBusG(bus, 0, &vals)
			for i, w := range bus {
				var want uint64
				for l := 0; l < 64; l++ {
					want |= uint64(vals[l]>>uint(i)&1) << uint(l)
				}
				if m.LaneWord(w, 0) != want {
					t.Fatalf("width %d wire %d: ScatterBusG %016x, want %016x", width, i, m.LaneWord(w, 0), want)
				}
			}

			// Round trip: gather back exactly what was scattered.
			m.GatherBusG(bus, 0, &got)
			if got != vals {
				t.Fatalf("width %d: scatter/gather round trip diverged", width)
			}
		}
	}
}
