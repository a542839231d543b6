package hafi

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ModelID names a fault model. The zero value is the classic single-event
// upset, so every FaultPoint built before fault-model diversity existed is
// still a valid (and identically behaving) SEU point.
type ModelID uint8

// The supported fault models. Their injection semantics:
//
//   - ModelSEU: invert one flip-flop at the beginning of cycle Cycle, and
//     re-invert it at the beginning of each of the Duration cycles it holds
//     (paper Section 6.2). Today's hardwired behavior, byte for byte.
//   - ModelMBU: a multi-bit upset — invert the Span adjacent flip-flops
//     [FF, FF+Span) every held cycle. Adjacency is netlist order within one
//     placement group (FF.Group), the software stand-in for physical
//     adjacency in a layout.
//   - ModelSET: a gate-level single-event transient, represented as the
//     simultaneous multi-SEU set at the flip-flops the struck gate's output
//     cone latches into — the exact RTL equivalence arXiv:2103.05106
//     establishes, which lets a pure-RTL machine model combinational
//     transients without timing. Targets lists the affected flip-flops
//     (sorted; FF is Targets[0]); the set flips once, at cycle Cycle.
//   - ModelIntermittent: a weak/marginal cell that re-flips every Period
//     cycles inside a Duration-cycle window starting at Cycle (flips at
//     Cycle, Cycle+Period, ... while inside the window).
//   - ModelStuckAt: flip-flop FF is forced to the StuckHigh value at the
//     beginning of every cycle in [Cycle, Cycle+Duration) — a transient
//     stuck-at-0/1 whose effect is data-dependent (cycles where the stored
//     value already equals the forced value inject nothing).
const (
	ModelSEU ModelID = iota
	ModelMBU
	ModelSET
	ModelIntermittent
	ModelStuckAt

	numModels
)

var modelNames = [numModels]string{"seu", "mbu", "set", "intermittent", "stuck-at"}

func (id ModelID) String() string {
	if int(id) < len(modelNames) {
		return modelNames[id]
	}
	return fmt.Sprintf("model(%d)", uint8(id))
}

// FFAccess is the flip-flop view a fault model injects through: read and
// invert stored values by flip-flop index. Two adapters exist — one over
// the scalar machine, one over a single lane of the wide machine — so
// every model has exactly one injection implementation shared by both
// engines.
type FFAccess interface {
	// FFValue reads the stored value of flip-flop ff.
	FFValue(ff int) bool
	// FlipFF inverts the stored value of flip-flop ff.
	FlipFF(ff int)
}

// machineFFs adapts the scalar simulator. Pointer methods so converting to
// FFAccess stays allocation-free on the per-experiment hot path.
type machineFFs struct{ m *sim.Machine }

func (a *machineFFs) FFValue(ff int) bool { return a.m.Value(a.m.NL.FFs[ff].Q) }
func (a *machineFFs) FlipFF(ff int)       { a.m.FlipFF(ff) }

// laneFFs adapts one lane of the wide machine.
type laneFFs struct {
	r    RunW
	lane int
}

func (a *laneFFs) FFValue(ff int) bool { return a.r.MachW().FFLane(ff, a.lane) }
func (a *laneFFs) FlipFF(ff int)       { a.r.FlipLane(ff, a.lane) }

// FaultModel defines the injection semantics of one fault model. The
// campaign engines are model-agnostic: they restore a checkpoint, call
// Inject once per cycle of the active window, and classify the outcome; the
// model decides which flip-flops change on which cycle.
type FaultModel interface {
	ID() ModelID
	Name() string
	// Validate rejects a fault point whose operands are malformed for this
	// model (out-of-range flip-flops, a burst crossing a group boundary,
	// an unsorted SET target list, ...). Campaign setup validates every
	// point once, so the per-cycle Inject can trust the operands.
	Validate(nl *netlist.Netlist, p FaultPoint) error
	// ActiveEnd returns the first cycle at which the fault is no longer
	// active: the engines call Inject for every non-halted cycle in
	// [p.Cycle, ActiveEnd) and gate the convergence early-exit on the
	// window being over.
	ActiveEnd(p FaultPoint) int
	// Inject applies the model's state change for cycle cyc (which the
	// engine guarantees to be inside the active window).
	Inject(s FFAccess, p FaultPoint, cyc int)
	// SEUEquivalent reports whether the point degenerates to a plain
	// single-bit upset of ff held for duration cycles — the only shape the
	// MATE first-cycle masking argument covers, and therefore the only
	// shape provedBenign may prune. Multi-flip and data-dependent faults
	// return ok=false and are always executed.
	SEUEquivalent(p FaultPoint) (ff, duration int, ok bool)
}

// models is the singleton registry, indexed by ModelID.
var models = [numModels]FaultModel{
	ModelSEU:          seuModel{},
	ModelMBU:          mbuModel{},
	ModelSET:          setModel{},
	ModelIntermittent: intermittentModel{},
	ModelStuckAt:      stuckAtModel{},
}

// Model returns the registered fault model, or nil for an unknown ID.
func Model(id ModelID) FaultModel {
	if int(id) < len(models) {
		return models[id]
	}
	return nil
}

// ModelByName resolves a model name ("seu", "mbu", ...).
func ModelByName(name string) (ModelID, bool) {
	for id, n := range modelNames {
		if n == name {
			return ModelID(id), true
		}
	}
	return 0, false
}

func checkFFRange(nl *netlist.Netlist, p FaultPoint) error {
	if p.FF < 0 || p.FF >= len(nl.FFs) {
		return fmt.Errorf("hafi: %s point: flip-flop %d outside netlist (%d FFs)", p.Model, p.FF, len(nl.FFs))
	}
	if p.Cycle < 0 {
		return fmt.Errorf("hafi: %s point: negative cycle %d", p.Model, p.Cycle)
	}
	return nil
}

// noOperands rejects operand fields foreign to the model, so every point of
// a model carries exactly that model's operands (and SEU points stay
// journal-v2 clean).
func noOperands(p FaultPoint, span, period, targets, stuck bool) error {
	switch {
	case span && p.Span != 0:
		return fmt.Errorf("hafi: %s point carries a span (%d)", p.Model, p.Span)
	case period && p.Period != 0:
		return fmt.Errorf("hafi: %s point carries a period (%d)", p.Model, p.Period)
	case targets && len(p.Targets) != 0:
		return fmt.Errorf("hafi: %s point carries a target set (%d targets)", p.Model, len(p.Targets))
	case stuck && p.StuckHigh:
		return fmt.Errorf("hafi: %s point carries a stuck-at level", p.Model)
	}
	return nil
}

type seuModel struct{}

func (seuModel) ID() ModelID  { return ModelSEU }
func (seuModel) Name() string { return "seu" }
func (seuModel) Validate(nl *netlist.Netlist, p FaultPoint) error {
	if err := checkFFRange(nl, p); err != nil {
		return err
	}
	return noOperands(p, true, true, true, true)
}
func (seuModel) ActiveEnd(p FaultPoint) int               { return p.Cycle + p.duration() }
func (seuModel) Inject(s FFAccess, p FaultPoint, cyc int) { s.FlipFF(p.FF) }
func (seuModel) SEUEquivalent(p FaultPoint) (int, int, bool) {
	return p.FF, p.duration(), true
}

type mbuModel struct{}

func (mbuModel) ID() ModelID  { return ModelMBU }
func (mbuModel) Name() string { return "mbu" }
func (mbuModel) Validate(nl *netlist.Netlist, p FaultPoint) error {
	if err := checkFFRange(nl, p); err != nil {
		return err
	}
	if err := noOperands(p, false, true, true, true); err != nil {
		return err
	}
	span := p.span()
	if p.FF+span > len(nl.FFs) {
		return fmt.Errorf("hafi: mbu burst [%d, %d) outside netlist (%d FFs)", p.FF, p.FF+span, len(nl.FFs))
	}
	group := nl.FFs[p.FF].Group
	for ff := p.FF + 1; ff < p.FF+span; ff++ {
		if nl.FFs[ff].Group != group {
			return fmt.Errorf("hafi: mbu burst [%d, %d) crosses group boundary %q/%q at ff %d",
				p.FF, p.FF+span, group, nl.FFs[ff].Group, ff)
		}
	}
	return nil
}
func (mbuModel) ActiveEnd(p FaultPoint) int { return p.Cycle + p.duration() }
func (mbuModel) Inject(s FFAccess, p FaultPoint, cyc int) {
	for ff := p.FF; ff < p.FF+p.span(); ff++ {
		s.FlipFF(ff)
	}
}
func (mbuModel) SEUEquivalent(p FaultPoint) (int, int, bool) {
	if p.span() == 1 {
		return p.FF, p.duration(), true
	}
	return 0, 0, false
}

type setModel struct{}

func (setModel) ID() ModelID  { return ModelSET }
func (setModel) Name() string { return "set" }
func (setModel) Validate(nl *netlist.Netlist, p FaultPoint) error {
	if err := checkFFRange(nl, p); err != nil {
		return err
	}
	if err := noOperands(p, true, true, false, true); err != nil {
		return err
	}
	if p.Duration > 1 {
		return fmt.Errorf("hafi: set point holds %d cycles (a transient latches exactly once)", p.Duration)
	}
	ts := p.targets()
	if ts[0] != p.FF {
		return fmt.Errorf("hafi: set point FF %d is not the first target (%d)", p.FF, ts[0])
	}
	for i, ff := range ts {
		if ff < 0 || ff >= len(nl.FFs) {
			return fmt.Errorf("hafi: set target %d outside netlist (%d FFs)", ff, len(nl.FFs))
		}
		if i > 0 && ff <= ts[i-1] {
			return fmt.Errorf("hafi: set target list not strictly ascending at %d", ff)
		}
	}
	return nil
}
func (setModel) ActiveEnd(p FaultPoint) int { return p.Cycle + 1 }
func (setModel) Inject(s FFAccess, p FaultPoint, cyc int) {
	if cyc != p.Cycle {
		return // the transient latches exactly once
	}
	for _, ff := range p.targets() {
		s.FlipFF(ff)
	}
}
func (setModel) SEUEquivalent(p FaultPoint) (int, int, bool) {
	if ts := p.targets(); len(ts) == 1 {
		return ts[0], 1, true
	}
	return 0, 0, false
}

type intermittentModel struct{}

func (intermittentModel) ID() ModelID  { return ModelIntermittent }
func (intermittentModel) Name() string { return "intermittent" }
func (intermittentModel) Validate(nl *netlist.Netlist, p FaultPoint) error {
	if err := checkFFRange(nl, p); err != nil {
		return err
	}
	return noOperands(p, true, false, true, true)
}
func (intermittentModel) ActiveEnd(p FaultPoint) int { return p.Cycle + p.duration() }
func (intermittentModel) Inject(s FFAccess, p FaultPoint, cyc int) {
	if (cyc-p.Cycle)%p.period() == 0 {
		s.FlipFF(p.FF)
	}
}
func (intermittentModel) SEUEquivalent(p FaultPoint) (int, int, bool) {
	switch {
	case p.duration() <= p.period():
		// Only the first flip lands inside the window: a 1-cycle SEU.
		return p.FF, 1, true
	case p.period() == 1:
		// Re-flips every cycle of the window: a held SEU.
		return p.FF, p.duration(), true
	}
	return 0, 0, false
}

type stuckAtModel struct{}

func (stuckAtModel) ID() ModelID  { return ModelStuckAt }
func (stuckAtModel) Name() string { return "stuck-at" }
func (stuckAtModel) Validate(nl *netlist.Netlist, p FaultPoint) error {
	if err := checkFFRange(nl, p); err != nil {
		return err
	}
	return noOperands(p, true, true, true, false)
}
func (stuckAtModel) ActiveEnd(p FaultPoint) int { return p.Cycle + p.duration() }
func (stuckAtModel) Inject(s FFAccess, p FaultPoint, cyc int) {
	if s.FFValue(p.FF) != p.StuckHigh {
		s.FlipFF(p.FF)
	}
}
func (stuckAtModel) SEUEquivalent(p FaultPoint) (int, int, bool) {
	// Whether any bit flips at all depends on the stored data, so the
	// trace-level first-cycle masking argument never applies.
	return 0, 0, false
}

// ModelSpec is a parsed -fault-model argument: the model plus its
// enumeration parameters.
type ModelSpec struct {
	Model ModelID
	// Span is the MBU burst width (adjacent flip-flops per upset).
	Span int
	// Period is the intermittent re-flip period in cycles.
	Period int
	// Window is the active window (Duration) of intermittent and stuck-at
	// points.
	Window int
	// StuckHigh selects stuck-at-1 over stuck-at-0.
	StuckHigh bool
}

// Enumeration defaults, chosen so the bare model names are useful:
// adjacent-pair MBUs, an intermittent cell flipping every other cycle for
// eight, a four-cycle stuck-at transient.
const (
	defaultMBUSpan            = 2
	defaultIntermittentPeriod = 2
	defaultIntermittentWindow = 8
	defaultStuckWindow        = 4
)

// String renders the spec in the canonical -fault-model syntax (parsing it
// back yields the same spec).
func (s ModelSpec) String() string {
	switch s.Model {
	case ModelMBU:
		return fmt.Sprintf("mbu:%d", s.Span)
	case ModelIntermittent:
		return fmt.Sprintf("intermittent:%d,%d", s.Period, s.Window)
	case ModelStuckAt:
		level := 0
		if s.StuckHigh {
			level = 1
		}
		return fmt.Sprintf("stuck%d:%d", level, s.Window)
	case ModelSET:
		return "set"
	}
	return "seu"
}

// ParseModelSpec parses a -fault-model argument:
//
//	seu                    single-event upsets (the default)
//	mbu | mbu:S            S-wide adjacent-FF bursts (default 2)
//	set                    gate SETs as simultaneous multi-SEU sets
//	intermittent[:P[,W]]   re-flip every P cycles for a W-cycle window
//	stuck0[:W] | stuck1[:W]  force the FF low/high for W cycles
func ParseModelSpec(s string) (ModelSpec, error) {
	name, args, hasArgs := strings.Cut(s, ":")
	bad := func(format string, a ...interface{}) (ModelSpec, error) {
		return ModelSpec{}, fmt.Errorf("hafi: fault model %q: "+format, append([]interface{}{s}, a...)...)
	}
	argInt := func(v string, min int) (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n < min {
			return 0, fmt.Errorf("want an integer >= %d, got %q", min, v)
		}
		return n, nil
	}
	switch name {
	case "seu":
		if hasArgs {
			return bad("seu takes no parameters")
		}
		return ModelSpec{Model: ModelSEU}, nil
	case "mbu":
		spec := ModelSpec{Model: ModelMBU, Span: defaultMBUSpan}
		if hasArgs {
			n, err := argInt(args, 2)
			if err != nil {
				return bad("span: %v", err)
			}
			spec.Span = n
		}
		return spec, nil
	case "set":
		if hasArgs {
			return bad("set takes no parameters")
		}
		return ModelSpec{Model: ModelSET}, nil
	case "intermittent":
		spec := ModelSpec{Model: ModelIntermittent, Period: defaultIntermittentPeriod, Window: defaultIntermittentWindow}
		if hasArgs {
			parts := strings.SplitN(args, ",", 2)
			n, err := argInt(parts[0], 1)
			if err != nil {
				return bad("period: %v", err)
			}
			spec.Period = n
			if len(parts) == 2 {
				if n, err = argInt(parts[1], 1); err != nil {
					return bad("window: %v", err)
				}
				spec.Window = n
			}
		}
		return spec, nil
	case "stuck0", "stuck1":
		spec := ModelSpec{Model: ModelStuckAt, Window: defaultStuckWindow, StuckHigh: name == "stuck1"}
		if hasArgs {
			n, err := argInt(args, 1)
			if err != nil {
				return bad("window: %v", err)
			}
			spec.Window = n
		}
		return spec, nil
	}
	return bad("unknown model (want seu, mbu[:S], set, intermittent[:P[,W]], stuck0[:W] or stuck1[:W])")
}

// excludedFF builds the model-aware group filter shared by every fault-list
// enumerator: true for flip-flops whose group is excluded from the
// campaign. A fault point is excluded when ANY flip-flop it would upset is
// excluded (an MBU burst brushing the register file is out, exactly like
// the single-bit point inside it).
func excludedFF(nl *netlist.Netlist, excludeGroups []string) func(ff int) bool {
	if len(excludeGroups) == 0 {
		return func(int) bool { return false }
	}
	skip := map[string]bool{}
	for _, g := range excludeGroups {
		skip[g] = true
	}
	return func(ff int) bool { return skip[nl.FFs[ff].Group] }
}

// ModelFaultList enumerates the sampled fault list of one model: every
// eligible injection site at every strideth cycle, in cycle-major order
// (the shard planner's cut-at-cycle-boundary invariant holds for every
// model). For ModelSEU it returns exactly SampledFaultList.
func ModelFaultList(nl *netlist.Netlist, maxCycle, stride int, spec ModelSpec, excludeGroups ...string) []FaultPoint {
	excluded := excludedFF(nl, excludeGroups)
	var sites []FaultPoint // per-cycle site templates (Cycle filled per cycle)
	switch spec.Model {
	case ModelSEU:
		for ff := range nl.FFs {
			if !excluded(ff) {
				sites = append(sites, FaultPoint{FF: ff})
			}
		}
	case ModelMBU:
		span := spec.Span
		if span < 2 {
			span = defaultMBUSpan
		}
		for ff := 0; ff+span <= len(nl.FFs); ff++ {
			ok := true
			for f := ff; f < ff+span; f++ {
				if excluded(f) || nl.FFs[f].Group != nl.FFs[ff].Group {
					ok = false
					break
				}
			}
			if ok {
				sites = append(sites, FaultPoint{FF: ff, Model: ModelMBU, Span: span})
			}
		}
	case ModelSET:
		for _, targets := range setTargetSets(nl, excluded) {
			sites = append(sites, FaultPoint{FF: targets[0], Model: ModelSET, Targets: targets})
		}
	case ModelIntermittent:
		period, window := spec.Period, spec.Window
		if period < 1 {
			period = defaultIntermittentPeriod
		}
		if window < 1 {
			window = defaultIntermittentWindow
		}
		for ff := range nl.FFs {
			if !excluded(ff) {
				sites = append(sites, FaultPoint{FF: ff, Model: ModelIntermittent, Period: period, Duration: window})
			}
		}
	case ModelStuckAt:
		window := spec.Window
		if window < 1 {
			window = defaultStuckWindow
		}
		for ff := range nl.FFs {
			if !excluded(ff) {
				sites = append(sites, FaultPoint{FF: ff, Model: ModelStuckAt, Duration: window, StuckHigh: spec.StuckHigh})
			}
		}
	}
	var out []FaultPoint
	for cyc := 0; cyc < maxCycle; cyc += stride {
		for _, site := range sites {
			p := site
			p.Cycle = cyc
			out = append(out, p)
		}
	}
	return out
}

// maxSETTargets bounds a SET's flip set: a cone latching into more
// flip-flops than this models a gate whose transient the RTL equivalence
// cannot usefully bound (clock-tree-like fanout), and is skipped.
const maxSETTargets = 64

// setTargetSets computes, per gate, the flip-flops the gate's combinational
// output cone latches into — the simultaneous flip set representing an SET
// at that gate — then deduplicates identical sets (gates on the same cone
// spine produce the same observable upset). Sets touching an excluded
// flip-flop, empty sets (cones ending only in primary outputs) and sets
// wider than maxSETTargets are dropped. The result is ordered by the first
// originating gate, each set sorted ascending.
func setTargetSets(nl *netlist.Netlist, excluded func(ff int) bool) [][]int {
	var out [][]int
	seen := map[string]bool{}
	visited := make([]int, nl.NumWires()) // BFS epoch marker, 1-based per gate
	var queue []netlist.WireID
	for gi := range nl.Gates {
		epoch := gi + 1
		ffSet := map[int]bool{}
		queue = queue[:0]
		w := nl.Gates[gi].Output
		visited[w] = epoch
		queue = append(queue, w)
		tooWide := false
		for len(queue) > 0 && !tooWide {
			w, queue = queue[0], queue[1:]
			for _, ffi := range nl.FFsOfD(w) {
				ffSet[int(ffi)] = true
				if len(ffSet) > maxSETTargets {
					tooWide = true
					break
				}
			}
			for _, ref := range nl.Fanout(w) {
				o := nl.Gates[ref.Gate].Output
				if visited[o] != epoch {
					visited[o] = epoch
					queue = append(queue, o)
				}
			}
		}
		if tooWide || len(ffSet) == 0 {
			continue
		}
		targets := make([]int, 0, len(ffSet))
		skip := false
		for ff := range ffSet {
			if excluded(ff) {
				skip = true
				break
			}
			targets = append(targets, ff)
		}
		if skip {
			continue
		}
		sort.Ints(targets)
		key := fmt.Sprint(targets)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, targets)
	}
	return out
}
