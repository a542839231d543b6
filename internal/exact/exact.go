package exact

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Options configures the exact engine.
type Options struct {
	// NodeBudget bounds each cone's BDD universe (0 = DefaultNodeBudget).
	// A cone that blows the budget degrades gracefully: verification
	// reports it unproven, term extraction keeps the heuristic terms only.
	NodeBudget int
	// MaxTermsPerWire caps the prime-implicant cover extracted per faulty
	// wire (0 = DefaultMaxTermsPerWire). A truncated wire keeps no exact
	// terms (a partial ISOP emission order is not canonical) and is listed
	// in FindResult.Truncated.
	MaxTermsPerWire int
	// MaxTermWidth drops prime implicants with more literals than this
	// (0 = unlimited). Width is the paper's hardware-cost metric; very wide
	// terms trigger rarely and cost many trigger inputs.
	MaxTermWidth int
	// Workers parallelises the per-wire analyses (0 = GOMAXPROCS).
	Workers int
	// Obs, when non-nil, receives exact_bdd_nodes_total,
	// exact_terms_found_total, exact_unmaskable_total and the verification
	// counters as the analysis progresses.
	Obs *obs.Registry
}

// DefaultMaxTermsPerWire bounds the per-wire prime cover; it matches the
// heuristic search's MaxMATEsPerWire default.
const DefaultMaxTermsPerWire = 512

func (o Options) nodeBudget() int {
	if o.NodeBudget <= 0 {
		return DefaultNodeBudget
	}
	return o.NodeBudget
}

func (o Options) maxTerms() int {
	if o.MaxTermsPerWire <= 0 {
		return DefaultMaxTermsPerWire
	}
	return o.MaxTermsPerWire
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// ---------------------------------------------------------------------------
// VerifyMATESet
// ---------------------------------------------------------------------------

// TermViolation is one disproved soundness claim: the MATE's literal
// conjunction does not imply the masking condition of a wire it masks.
// Witness is a border-wire assignment satisfying every literal while the
// flip still escapes the cone — a concrete counterexample.
type TermViolation struct {
	MATE     int
	Wire     netlist.WireID
	WireName string
	Witness  []core.Literal
}

func (v TermViolation) String() string {
	name := v.WireName
	if name == "" {
		name = fmt.Sprintf("wire#%d", v.Wire)
	}
	return fmt.Sprintf("MATE #%d does not imply the masking condition of %s", v.MATE, name)
}

// VerifyResult is the outcome of re-proving a MATE set.
type VerifyResult struct {
	MATEs        int
	PairsChecked int // (MATE, masked wire) implications attempted
	PairsProved  int
	Violations   []TermViolation
	// Unproven lists wires whose masking condition blew the node budget;
	// their pairs are neither proved nor disproved (graceful fallback).
	Unproven []netlist.WireID
	// BadCertificates lists certified-unmaskable wires whose masking
	// condition is NOT ≡ false (an unsound certificate), plus wires both
	// certified and covered by a MATE (mutually contradictory claims).
	BadCertificates []netlist.WireID
	BDDNodes        int64
	Elapsed         time.Duration
}

// Sound reports whether every attempted implication was proved (budget
// fallbacks are not counted against soundness, but are visible).
func (r *VerifyResult) Sound() bool { return len(r.Violations) == 0 && len(r.BadCertificates) == 0 }

// VerifyMATESet independently re-proves every MATE of the set: for each
// (MATE, masked wire) pair, the literal conjunction must imply the exact
// masking condition of the wire's fault cone. Literals on wires outside the
// cone border cannot constrain the condition and are ignored (the
// mate-border lint analyzer flags them separately); the implication check
// is therefore exactly "triggering states ⊆ masked states" over the free
// border semantics the MATE construction promises. Certificates riding in
// the set are re-proved too: a certified wire's condition must be ≡ false
// and no MATE may claim to mask it.
func VerifyMATESet(nl *netlist.Netlist, set *core.MATESet, opts Options) *VerifyResult {
	start := time.Now()
	sp := opts.Obs.StartSpan("exact/verify")
	defer sp.End()
	met := newMetrics(opts.Obs)

	// Group the proof obligations per masked wire: one masking condition
	// serves every MATE covering that wire.
	type obligation struct {
		wire  netlist.WireID
		mates []int
	}
	byWire := map[netlist.WireID]*obligation{}
	var order []netlist.WireID
	for mi, m := range set.MATEs {
		for _, w := range m.Masks {
			ob := byWire[w]
			if ob == nil {
				ob = &obligation{wire: w}
				byWire[w] = ob
				order = append(order, w)
			}
			ob.mates = append(ob.mates, mi)
		}
	}
	certified := set.CertifiedUnmaskable()
	for _, c := range set.Certificates {
		if _, ok := byWire[c.Wire]; !ok {
			order = append(order, c.Wire)
			byWire[c.Wire] = &obligation{wire: c.Wire}
		}
	}

	type wireVerdict struct {
		checked, proved int
		violations      []TermViolation
		unproven        bool
		badCert         bool
		nodes           int64
	}
	verdicts := make([]wireVerdict, len(order))
	parallelFor(len(order), opts.workers(), func(i int) {
		w := order[i]
		ob := byWire[w]
		v := &verdicts[i]
		mc, err := MaskingCondition(nl, w, opts.nodeBudget())
		if err != nil {
			v.unproven = true
			return
		}
		v.nodes = int64(mc.B.NumNodes())
		if certified[w] {
			// Certificate obligations: condition ≡ ⊥, and no MATE covers w.
			if !mc.Unmaskable() || len(ob.mates) > 0 {
				v.badCert = true
			}
		}
		for _, mi := range ob.mates {
			v.checked++
			m := set.MATEs[mi]
			assign := map[int]bool{}
			for _, l := range m.Literals {
				if lv, ok := mc.VarOf[l.Wire]; ok {
					assign[lv] = l.Value
				}
			}
			rest, err := mc.B.Restrict(mc.Cond, assign)
			if err != nil {
				v.unproven = true
				continue
			}
			if rest == True {
				v.proved++
				continue
			}
			// Build the counterexample: the literal assignment plus any
			// path of the restricted condition to ⊥.
			witness := append([]core.Literal(nil), m.Literals...)
			for _, cl := range satPath(mc.B, rest, false) {
				witness = append(witness, core.Literal{Wire: mc.Border[cl.Level], Value: cl.Value})
			}
			sort.Slice(witness, func(a, b int) bool { return witness[a].Wire < witness[b].Wire })
			v.violations = append(v.violations, TermViolation{
				MATE: mi, Wire: w, WireName: nl.WireName(w), Witness: witness,
			})
		}
	})

	res := &VerifyResult{MATEs: set.Size()}
	for i := range verdicts {
		v := &verdicts[i]
		res.PairsChecked += v.checked
		res.PairsProved += v.proved
		res.Violations = append(res.Violations, v.violations...)
		res.BDDNodes += v.nodes
		if v.unproven {
			res.Unproven = append(res.Unproven, order[i])
		}
		if v.badCert {
			res.BadCertificates = append(res.BadCertificates, order[i])
		}
	}
	sort.Slice(res.Violations, func(a, b int) bool {
		if res.Violations[a].MATE != res.Violations[b].MATE {
			return res.Violations[a].MATE < res.Violations[b].MATE
		}
		return res.Violations[a].Wire < res.Violations[b].Wire
	})
	sortWires(res.Unproven)
	sortWires(res.BadCertificates)
	res.Elapsed = time.Since(start)
	met.verify(res)
	return res
}

// ---------------------------------------------------------------------------
// FindExactTerms
// ---------------------------------------------------------------------------

// WireExact is the exact analysis of one faulty wire.
type WireExact struct {
	Wire        netlist.WireID
	ConeGates   int
	BorderWires int
	BDDNodes    int
	// Unmaskable: the masking condition is ≡ false (certificate emitted).
	Unmaskable bool
	// Terms is the prime-implicant cover of the masking condition, already
	// filtered against the heuristic set (terms some heuristic MATE
	// implies for this wire are dropped) and the width cap.
	Terms [][]core.Literal
	// PrimeCover is the unfiltered cover size (how many prime implicants
	// the condition has, before heuristic-overlap filtering).
	PrimeCover int
	// Truncated: the node or cube budget was hit; Terms is empty and the
	// wire keeps its heuristic terms only.
	Truncated bool
}

// FindResult aggregates an exact term-finding run.
type FindResult struct {
	PerWire      []WireExact
	Certificates []core.Certificate
	// TermsFound counts the (term, wire) pairs the heuristic set did not
	// already imply — the exact engine's net contribution.
	TermsFound int
	Truncated  int
	BDDNodes   int64
	Elapsed    time.Duration
}

// FindExactTerms computes, for every given faulty wire, the exact masking
// condition and its prime-implicant cover, returning the terms the
// heuristic set (may be nil) does not already imply, plus unmaskability
// certificates for wires whose condition is ≡ false.
func FindExactTerms(nl *netlist.Netlist, wires []netlist.WireID, heuristic *core.MATESet, opts Options) *FindResult {
	start := time.Now()
	sp := opts.Obs.StartSpan("exact/find")
	defer sp.End()
	met := newMetrics(opts.Obs)

	// Heuristic terms per wire, for the implied-term filter.
	heurByWire := map[netlist.WireID][][]core.Literal{}
	if heuristic != nil {
		for _, m := range heuristic.MATEs {
			for _, w := range m.Masks {
				heurByWire[w] = append(heurByWire[w], m.Literals)
			}
		}
	}

	res := &FindResult{PerWire: make([]WireExact, len(wires))}
	parallelFor(len(wires), opts.workers(), func(i int) {
		w := wires[i]
		we := &res.PerWire[i]
		we.Wire = w
		mc, err := MaskingCondition(nl, w, opts.nodeBudget())
		if err != nil {
			we.Truncated = true
			return
		}
		we.ConeGates = mc.Cone.NumGates()
		we.BorderWires = len(mc.Border)
		we.BDDNodes = mc.B.NumNodes()
		if mc.Unmaskable() {
			we.Unmaskable = true
			return
		}
		cubes, err := ISOP(mc.B, mc.Cond, opts.maxTerms())
		if err != nil {
			we.Truncated = true
			we.BDDNodes = mc.B.NumNodes()
			return
		}
		we.BDDNodes = mc.B.NumNodes()
		we.PrimeCover = len(cubes)
		for _, cube := range cubes {
			if opts.MaxTermWidth > 0 && len(cube) > opts.MaxTermWidth {
				continue
			}
			lits := make([]core.Literal, len(cube))
			for j, cl := range cube {
				lits[j] = core.Literal{Wire: mc.Border[cl.Level], Value: cl.Value}
			}
			sort.Slice(lits, func(a, b int) bool { return lits[a].Wire < lits[b].Wire })
			if impliedByAny(heurByWire[w], lits) {
				continue
			}
			we.Terms = append(we.Terms, lits)
		}
	})

	for i := range res.PerWire {
		we := &res.PerWire[i]
		res.BDDNodes += int64(we.BDDNodes)
		if we.Truncated {
			res.Truncated++
			continue
		}
		if we.Unmaskable {
			res.Certificates = append(res.Certificates, core.Certificate{
				Wire: we.Wire, ConeGates: we.ConeGates,
				BorderWires: we.BorderWires, BDDNodes: we.BDDNodes,
			})
			continue
		}
		res.TermsFound += len(we.Terms)
	}
	sort.Slice(res.Certificates, func(a, b int) bool { return res.Certificates[a].Wire < res.Certificates[b].Wire })
	res.Elapsed = time.Since(start)
	met.find(res)
	return res
}

// MergeInto merges the exact terms and certificates into the MATE set,
// deduplicating against existing literal sets (masks merge) and re-sorting
// by coverage. It returns the number of genuinely new MATEs created.
func (r *FindResult) MergeInto(set *core.MATESet) int {
	byKey := map[string]*core.MATE{}
	for _, m := range set.MATEs {
		byKey[m.Key()] = m
	}
	created := 0
	for i := range r.PerWire {
		we := &r.PerWire[i]
		for _, lits := range we.Terms {
			m := &core.MATE{Literals: lits}
			key := m.Key()
			if prev, ok := byKey[key]; ok {
				insertMask(prev, we.Wire)
				continue
			}
			m.Masks = []netlist.WireID{we.Wire}
			byKey[key] = m
			set.MATEs = append(set.MATEs, m)
			created++
		}
	}
	// Certificates replace (do not join) any stale certificate list: the
	// exact run is the authority on unmaskability.
	set.Certificates = append([]core.Certificate(nil), r.Certificates...)
	set.SortByCoverage()
	return created
}

// insertMask adds a wire to a MATE's sorted mask list if absent.
func insertMask(m *core.MATE, w netlist.WireID) {
	i := sort.Search(len(m.Masks), func(i int) bool { return m.Masks[i] >= w })
	if i < len(m.Masks) && m.Masks[i] == w {
		return
	}
	m.Masks = append(m.Masks, 0)
	copy(m.Masks[i+1:], m.Masks[i:])
	m.Masks[i] = w
}

// impliedByAny reports whether some existing term's literal set is a subset
// of the candidate's — whenever the candidate triggers, that existing term
// already triggers and masks the wire, so the candidate adds nothing.
// Both sides are sorted by wire.
func impliedByAny(existing [][]core.Literal, cand []core.Literal) bool {
outer:
	for _, ex := range existing {
		if len(ex) > len(cand) {
			continue
		}
		j := 0
		for _, l := range ex {
			for j < len(cand) && cand[j].Wire < l.Wire {
				j++
			}
			if j == len(cand) || cand[j].Wire != l.Wire || cand[j].Value != l.Value {
				continue outer
			}
			j++
		}
		return true
	}
	return false
}

// satPath returns a partial assignment (as cube literals) leading f to the
// requested constant — the witness extractor for counterexamples.
func satPath(b *BDD, f Ref, want bool) Cube {
	var path Cube
	target := False
	if want {
		target = True
	}
	var rec func(f Ref) bool
	rec = func(f Ref) bool {
		if f.IsConst() {
			return f == target
		}
		n := &b.nodes[f.idx()]
		lo, hi := n.Lo, n.Hi
		if f.complemented() {
			lo, hi = lo.Not(), hi.Not()
		}
		path = append(path, CubeLit{Level: int(n.Level), Value: false})
		if rec(lo) {
			return true
		}
		path[len(path)-1].Value = true
		if rec(hi) {
			return true
		}
		path = path[:len(path)-1]
		return false
	}
	if !rec(f) {
		return nil
	}
	return path
}

// parallelFor fans f over n items with w workers, preserving index
// determinism (results land in caller-indexed slots).
func parallelFor(n, w int, f func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	ch := make(chan int)
	done := make(chan struct{})
	for k := 0; k < w; k++ {
		go func() {
			for i := range ch {
				f(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	for k := 0; k < w; k++ {
		<-done
	}
}

func sortWires(ws []netlist.WireID) {
	sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// metrics holds the exact engine's observability handles; nil-receiver safe
// like the other subsystems.
type metrics struct {
	nodes      *obs.Counter // exact_bdd_nodes_total
	terms      *obs.Counter // exact_terms_found_total
	unmaskable *obs.Counter // exact_unmaskable_total
	proved     *obs.Counter // exact_pairs_proved_total
	violations *obs.Counter // exact_violations_total
	unproven   *obs.Counter // exact_unproven_total
	truncated  *obs.Counter // exact_truncated_total
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		nodes:      reg.Counter("exact_bdd_nodes_total"),
		terms:      reg.Counter("exact_terms_found_total"),
		unmaskable: reg.Counter("exact_unmaskable_total"),
		proved:     reg.Counter("exact_pairs_proved_total"),
		violations: reg.Counter("exact_violations_total"),
		unproven:   reg.Counter("exact_unproven_total"),
		truncated:  reg.Counter("exact_truncated_total"),
	}
}

func (m *metrics) verify(r *VerifyResult) {
	if m == nil {
		return
	}
	m.nodes.Add(r.BDDNodes)
	m.proved.Add(int64(r.PairsProved))
	m.violations.Add(int64(len(r.Violations) + len(r.BadCertificates)))
	m.unproven.Add(int64(len(r.Unproven)))
}

func (m *metrics) find(r *FindResult) {
	if m == nil {
		return
	}
	m.nodes.Add(r.BDDNodes)
	m.terms.Add(int64(r.TermsFound))
	m.unmaskable.Add(int64(len(r.Certificates)))
	m.truncated.Add(int64(r.Truncated))
}
