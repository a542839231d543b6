package main

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/hafi"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The sim and cpu layers run inside RunCampaignBatchedPoolW, out of reach
// of the benchmark's spans. The traced run therefore replays a few batches
// of the workload's own fault list on a fresh device and times the layer
// calls cycle by cycle.
const (
	replayBatches   = 4
	replayMaxCycles = 2000
)

// replayStats accumulates the replay's per-call timings and lane counts.
type replayStats struct {
	cycles                 int64 // cycles replayed (per pass)
	evalCalls              int64
	opGroups               int64 // gate ops x active lane groups over all EvalComb calls
	eval, env, commit      time.Duration
	diverge, step          time.Duration
	liveLanes, goldenLanes int64 // live lane-cycles, and those whose FF state equals golden
	goldenBus              int64 // live lane-cycles whose memory-interface wires equal golden
}

// laneFFs adapts one lane of a wide machine to hafi.FFAccess.
type laneFFs struct {
	m    *sim.MachineW
	lane int
}

func (a laneFFs) FFValue(ff int) bool { return a.m.FFLane(ff, a.lane) }
func (a laneFFs) FlipFF(ff int)       { a.m.FlipLane(ff, a.lane) }

// replay replays replayBatches batches, taken at evenly spaced injection
// cycles of the cycle-major fault list, for at most replayMaxCycles cycles
// each (and never past the golden run).
func replay(t *target, g *hafi.Golden, points []hafi.FaultPoint) (*replayStats, error) {
	var cycles []int
	byCycle := map[int][]hafi.FaultPoint{}
	for _, p := range points {
		if len(byCycle[p.Cycle]) == 0 {
			cycles = append(cycles, p.Cycle)
		}
		byCycle[p.Cycle] = append(byCycle[p.Cycle], p)
	}
	st := &replayStats{}
	for b := 0; b < replayBatches && len(cycles) > 0; b++ {
		cyc := cycles[(2*b+1)*len(cycles)/(2*replayBatches)]
		batch := byCycle[cyc]
		if len(batch) > Lanes {
			batch = batch[:Lanes]
		}
		// Pass 1 times the parts of a step, pass 2 the whole RunW.Step;
		// both follow the same lane trajectories.
		if err := st.replayBatch(t, g, batch, cyc, true); err != nil {
			return nil, err
		}
		if err := st.replayBatch(t, g, batch, cyc, false); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *replayStats) replayBatch(t *target, g *hafi.Golden, batch []hafi.FaultPoint, cyc0 int, parts bool) error {
	run, err := t.newRunW()
	if err != nil {
		return err
	}
	er, ok := run.(interface{ EnvW() sim.EnvW })
	if !ok {
		return fmt.Errorf("%T exposes no lane environment", run)
	}
	env := er.EnvW()
	m := run.MachW()
	run.LoadCheckpoint(g.Checkpoints[cyc0])
	used := make([]uint64, m.W)
	for l := range batch {
		used[l>>6] |= 1 << (uint(l) & 63)
	}
	gates := int64(len(t.nl.Gates))
	end := cyc0 + replayMaxCycles
	if end > g.HaltCycle {
		end = g.HaltCycle
	}
	live := make([]uint64, m.W)
	div := make([]uint64, m.W)
	for cyc := cyc0; cyc < end; cyc++ {
		any := false
		for gi := range live {
			live[gi] = used[gi] &^ run.HaltedMaskG(gi)
			any = any || live[gi] != 0
		}
		if !any {
			break
		}
		// Injection at the start of the cycle, as the campaign engine does
		// it: every live lane whose fault is still active.
		for l, p := range batch {
			fm := hafi.Model(p.Model)
			if live[l>>6]>>(uint(l)&63)&1 == 1 && cyc < fm.ActiveEnd(p) {
				fm.Inject(laneFFs{m, l}, p, cyc)
			}
		}
		row := g.Trace.Row(cyc)
		d0 := time.Now()
		for gi, lv := range live {
			if lv != 0 {
				div[gi] = m.DivergenceMaskG(row, lv, gi)
			}
		}
		d1 := time.Now()
		// The engine's convergence early exit: a lane past its fault's
		// active window whose flip-flop state and memory write digest equal
		// the golden run's retires, so the replay follows only the lanes the
		// engine still simulates.
		if cyc < len(g.MemDigests) {
			for l, p := range batch {
				bit := uint64(1) << (uint(l) & 63)
				if (live[l>>6]&^div[l>>6])&bit != 0 && cyc >= hafi.Model(p.Model).ActiveEnd(p) &&
					run.MemDigestLane(l) == g.MemDigests[cyc] {
					used[l>>6] &^= bit
					live[l>>6] &^= bit
				}
			}
		}
		if !parts {
			t0 := time.Now()
			run.Step()
			st.step += time.Since(t0)
			continue
		}
		st.cycles++
		for gi, lv := range live {
			st.liveLanes += int64(bits.OnesCount64(lv))
			st.goldenLanes += int64(bits.OnesCount64(lv &^ div[gi]))
		}
		t1 := time.Now()
		m.EvalComb()
		t2 := time.Now()
		env.SetInputsW(m)
		t3 := time.Now()
		m.EvalComb()
		t4 := time.Now()
		st.goldenBus += goldenBusLanes(m, t.memBus, row, live)
		t5 := time.Now()
		m.CommitFFs()
		t6 := time.Now()
		st.diverge += d1.Sub(d0)
		st.eval += t2.Sub(t1) + t4.Sub(t3)
		st.env += t3.Sub(t2)
		st.commit += t6.Sub(t5)
		st.evalCalls += 2
		st.opGroups += 2 * gates * int64(m.ActiveGroups())
	}
	return nil
}

// goldenBusLanes counts the live lanes whose settled memory-interface
// wires all equal the golden run's in this cycle: the lanes a
// golden-relative bus service could serve from the golden row.
func goldenBusLanes(m *sim.MachineW, bus []netlist.WireID, row []uint64, live []uint64) int64 {
	var n int64
	for gi, lv := range live {
		var div uint64
		for _, w := range bus {
			gb := row[w>>6] >> (uint(w) & 63) & 1
			div |= m.LaneWord(w, gi) ^ -gb
		}
		n += int64(bits.OnesCount64(lv &^ div))
	}
	return n
}

// metrics returns the sim and cpu layer metrics.
func (st *replayStats) metrics() map[string]float64 {
	ns := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"sim.eval_ns":              ns(st.eval, st.evalCalls),
		"sim.eval_ns_per_op_group": ns(st.eval, st.opGroups),
		"sim.commit_ns":            ns(st.commit, st.cycles),
		"sim.diverge_ns":           ns(st.diverge, st.cycles),
		"sim.step_ns":              ns(st.step, st.cycles),
		"sim.golden_lane_frac":     frac(float64(st.goldenLanes), float64(st.liveLanes)),
		"cpu.env_ns":               ns(st.env, st.cycles),
		"cpu.env_share":            frac(st.env.Seconds(), st.step.Seconds()),
		"cpu.golden_bus_frac":      frac(float64(st.goldenBus), float64(st.liveLanes)),
	}
}
