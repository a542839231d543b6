package sim

import "repro/internal/cell"

// op64 is one gate in the flattened bitwise evaluation program. In a
// width-W program the out/in indices are pre-scaled by W.
type op64 struct {
	kind    cell.Kind
	tt      uint32
	out     int32
	in      [4]int32
	numPins int8
	level   int32
}

// opRun is a contiguous span of same-kind ops in an evaluation program.
type opRun struct {
	kind       cell.Kind
	start, end int32
}

// buildRuns splits an ordered op program into contiguous same-kind spans.
func buildRuns(ops []op64) []opRun {
	// In-run order follows the (level, kind) sort, so a span may cross a
	// level boundary and still respect dependencies.
	var runs []opRun
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].kind == ops[i].kind {
			j++
		}
		runs = append(runs, opRun{kind: ops[i].kind, start: int32(i), end: int32(j)})
		i = j
	}
	return runs
}

// evalProgram executes one kind-grouped W=1 op program: one switch
// dispatch per run, then a tight specialized loop over the span — the hot
// path of the 64-lane engine (evalProgram4 is its 256-lane sibling).
func evalProgram(ops []op64, runs []opRun, v []uint64) {
	for _, r := range runs {
		seg := ops[r.start:r.end]
		switch r.kind {
		case cell.TIE0:
			for i := range seg {
				v[seg[i].out] = 0
			}
		case cell.TIE1:
			for i := range seg {
				v[seg[i].out] = ^uint64(0)
			}
		case cell.BUF:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]]
			}
		case cell.INV:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^v[o.in[0]]
			}
		case cell.AND2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]]
			}
		case cell.AND3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]] & v[o.in[2]]
			}
		case cell.AND4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] & v[o.in[1]] & v[o.in[2]] & v[o.in[3]]
			}
		case cell.NAND2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]])
			}
		case cell.NAND3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]] & v[o.in[2]])
			}
		case cell.NAND4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] & v[o.in[1]] & v[o.in[2]] & v[o.in[3]])
			}
		case cell.OR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]]
			}
		case cell.OR3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]] | v[o.in[2]]
			}
		case cell.OR4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] | v[o.in[1]] | v[o.in[2]] | v[o.in[3]]
			}
		case cell.NOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]])
			}
		case cell.NOR3:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]] | v[o.in[2]])
			}
		case cell.NOR4:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] | v[o.in[1]] | v[o.in[2]] | v[o.in[3]])
			}
		case cell.XOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = v[o.in[0]] ^ v[o.in[1]]
			}
		case cell.XNOR2:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^(v[o.in[0]] ^ v[o.in[1]])
			}
		case cell.MUX2:
			// a ^ (s & (a^b)): one op fewer than (^s&a)|(s&b), and MUX2 is
			// the most common cell on both cores.
			for i := range seg {
				o := &seg[i]
				a := v[o.in[0]]
				v[o.out] = a ^ (v[o.in[2]] & (a ^ v[o.in[1]]))
			}
		case cell.AOI21:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] & v[o.in[1]]) | v[o.in[2]])
			}
		case cell.AOI22:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] & v[o.in[1]]) | (v[o.in[2]] & v[o.in[3]]))
			}
		case cell.OAI21:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] | v[o.in[1]]) & v[o.in[2]])
			}
		case cell.OAI22:
			for i := range seg {
				o := &seg[i]
				v[o.out] = ^((v[o.in[0]] | v[o.in[1]]) & (v[o.in[2]] | v[o.in[3]]))
			}
		case cell.MAJ3:
			for i := range seg {
				o := &seg[i]
				a, b, c := v[o.in[0]], v[o.in[1]], v[o.in[2]]
				v[o.out] = (a & b) | (a & c) | (b & c)
			}
		default:
			// Generic fallback: Shannon expansion over the truth table.
			for i := range seg {
				o := &seg[i]
				v[o.out] = evalGeneric(o, v)
			}
		}
	}
}

// evalGeneric evaluates an arbitrary (≤4 input) cell lane-parallel from
// its truth table by OR-ing the active minterms, reading pins through the
// same cached values slice as the specialized cases.
func evalGeneric(o *op64, v []uint64) uint64 {
	var out uint64
	n := int(o.numPins)
	for minterm := 0; minterm < 1<<n; minterm++ {
		if o.tt>>uint(minterm)&1 == 0 {
			continue
		}
		term := ^uint64(0)
		for p := 0; p < n; p++ {
			if minterm>>uint(p)&1 == 1 {
				term &= v[o.in[p]]
			} else {
				term &= ^v[o.in[p]]
			}
		}
		out |= term
	}
	return out
}
