package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hafi"
	"repro/internal/journal"
)

// Per-point verdicts, one byte each. A pruned point's verdict is benign:
// pruning claims exactly that.
const (
	vBenign  = 'b'
	vSDC     = 's'
	vHang    = 'h'
	vHarness = 'e' // harness-error outcome: the engine produced no verdict
	vWrong   = 'x' // pruned, but validation found it was not benign
	vMissing = '?' // no journal record
)

func verdictOf(rec journal.Record) byte {
	switch {
	case rec.Pruned && rec.SkippedWrong:
		return vWrong
	case rec.Pruned:
		return vBenign
	}
	switch hafi.Outcome(rec.Outcome) {
	case hafi.OutcomeBenign:
		return vBenign
	case hafi.OutcomeSDC:
		return vSDC
	case hafi.OutcomeHang:
		return vHang
	}
	return vHarness
}

// journalVerdicts reads a campaign journal back into per-point verdicts
// for an n-point fault list, plus the indices of the pruned points.
func journalVerdicts(path string, n int) (v []byte, pruned []int, err error) {
	rec, err := journal.Recover(path)
	if err != nil {
		return nil, nil, err
	}
	if rec.Torn || rec.Corrupt {
		return nil, nil, fmt.Errorf("journal %s damaged (torn=%v corrupt=%v)", path, rec.Torn, rec.Corrupt)
	}
	v = make([]byte, n)
	for i := range v {
		v[i] = vMissing
	}
	for idx, r := range rec.ByIndex {
		if idx >= uint64(n) {
			return nil, nil, fmt.Errorf("journal %s: record index %d beyond %d points", path, idx, n)
		}
		v[idx] = verdictOf(r)
		if r.Pruned {
			pruned = append(pruned, int(idx))
		}
	}
	sort.Ints(pruned)
	return v, pruned, nil
}

// verdictDigest fingerprints a verdict sequence (FNV-1a 64).
func verdictDigest(v []byte) uint64 {
	h := fnv.New64a()
	h.Write(v)
	return h.Sum64()
}

// mismatches counts the points whose verdict differs from the reference,
// plus every point without a usable verdict (harness error, failed
// validation, missing record) whatever the reference says.
func mismatches(got, want []byte) int64 {
	var n int64
	for i := range got {
		switch {
		case got[i] == vHarness || got[i] == vWrong || got[i] == vMissing:
			n++
		case i < len(want) && got[i] != want[i]:
			n++
		}
	}
	if len(want) > len(got) {
		n += int64(len(want) - len(got))
	}
	return n
}

// oracleVerdicts classifies points on the scalar oracle: a golden run
// recorded on the scalar machine, then sequential Controller.RunCampaign
// with no MATE set and no early exit, split over Workers independent
// controllers. It returns the oracle golden run and one verdict per point.
func oracleVerdicts(t *target, points []hafi.FaultPoint, dir string) (*hafi.Golden, []byte, error) {
	golden, err := hafi.RecordGolden(t.newOracleRun(), maxGoldenCycles)
	if err != nil {
		return nil, nil, err
	}
	out := make([]byte, len(points))
	errs := make([]error, Workers)
	var wg sync.WaitGroup
	for w := 0; w < Workers; w++ {
		lo, hi := w*len(points)/Workers, (w+1)*len(points)/Workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = oracleShard(t, golden, points[lo:hi], out[lo:hi], filepath.Join(dir, fmt.Sprintf("oracle-%d.journal", w)))
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return golden, out, nil
}

func oracleShard(t *target, golden *hafi.Golden, points []hafi.FaultPoint, out []byte, path string) error {
	if len(points) == 0 {
		return nil
	}
	ctl := hafi.NewController(t.newOracleRun(), golden)
	jw, err := journal.Create(path, ctl.JournalHeader(points))
	if err != nil {
		return err
	}
	_, err = ctl.RunCampaign(hafi.CampaignConfig{Points: points, DisableEarlyExit: true, Journal: jw})
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("oracle campaign: %w", err)
	}
	v, _, err := journalVerdicts(path, len(points))
	if err != nil {
		return err
	}
	copy(out, v)
	return os.Remove(path)
}

// samplePoints draws a seeded verification sample of n point indices:
// uniformly from the whole list, plus up to n/4 of the points the engine
// pruned, so pruning soundness is checked on every run.
func samplePoints(seed int64, total int, pruned []int, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[int]bool{}
	var idx []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	for k := 0; k < n/4 && len(pruned) > 0; k++ {
		add(pruned[rng.Intn(len(pruned))])
	}
	for len(idx) < n && len(idx) < total {
		add(rng.Intn(total))
	}
	return idx
}

// Reference files hold the default-seed verdicts of a campaign workload,
// computed once on the scalar oracle (perfbench -write-reference).

func referencePath(name string) string {
	return filepath.Join("perfbench", "reference", name+".txt")
}

// loadReference reads a reference file and checks it against the digest
// pinned in pinnedDigests.
func loadReference(name string, points int) ([]byte, error) {
	f, err := os.Open(referencePath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var v []byte
	var digest uint64
	n := -1
	sc := bufio.NewScanner(f)
	inVerdicts := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case inVerdicts:
			v = append(v, line...)
		case line == "verdicts":
			inVerdicts = true
		default:
			k, val, _ := strings.Cut(line, " ")
			switch k {
			case "points":
				n, err = strconv.Atoi(val)
			case "fnv64":
				digest, err = strconv.ParseUint(val, 16, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %v", referencePath(name), err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case n != len(v) || n != points:
		return nil, fmt.Errorf("%s: %d verdicts for %d declared points, fault list has %d", referencePath(name), len(v), n, points)
	case verdictDigest(v) != digest:
		return nil, fmt.Errorf("%s: verdicts do not match their digest", referencePath(name))
	case digest != pinnedDigests[name]:
		return nil, fmt.Errorf("%s: digest %016x differs from the pinned %016x", referencePath(name), digest, pinnedDigests[name])
	}
	return v, nil
}

func writeReferenceFile(name string, seed int64, v []byte) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Per-point verdicts of %s for seed %d, in fault-list order, from the\n", name, seed)
	b.WriteString("# scalar oracle: sequential Controller.RunCampaign on sim.Machine with no\n")
	b.WriteString("# MATE set and no early exit. b = benign, s = SDC, h = hang.\n")
	fmt.Fprintf(&b, "workload %s\nseed %d\npoints %d\nfnv64 %016x\nverdicts\n", name, seed, len(v), verdictDigest(v))
	for i := 0; i < len(v); i += 100 {
		j := i + 100
		if j > len(v) {
			j = len(v)
		}
		b.Write(v[i:j])
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(referencePath(name)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(referencePath(name), []byte(b.String()), 0o644)
}
