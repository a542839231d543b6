package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/hafi"
	"repro/internal/progs"
)

// encodeFaultList serialises every field of every point, so two lists
// compare byte for byte.
func encodeFaultList(points []hafi.FaultPoint) []byte {
	var b bytes.Buffer
	for _, p := range points {
		for _, v := range []int64{int64(p.FF), int64(p.Cycle), int64(p.Duration), int64(p.Model),
			int64(p.Span), int64(p.Period), int64(len(p.Targets))} {
			_ = binary.Write(&b, binary.LittleEndian, v)
		}
		_ = binary.Write(&b, binary.LittleEndian, p.StuckHigh)
		for _, t := range p.Targets {
			_ = binary.Write(&b, binary.LittleEndian, int64(t))
		}
	}
	return b.Bytes()
}

func cyclesOf(points []hafi.FaultPoint) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range points {
		if !seen[p.Cycle] {
			seen[p.Cycle] = true
			out = append(out, p.Cycle)
		}
	}
	slices.Sort(out)
	return out
}

func TestFaultListSeeded(t *testing.T) {
	for _, cs := range []*campaignSpec{campaignAVRSEU, campaignMSP430Stuck} {
		t.Run(cs.name, func(t *testing.T) {
			tg, err := newTarget(cs.cpu, cs.program)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := tg.newRunW()
			if err != nil {
				t.Fatal(err)
			}
			g, err := hafi.RecordGoldenW(rw, maxGoldenCycles)
			if err != nil {
				t.Fatal(err)
			}
			build := func(seed int64) []hafi.FaultPoint {
				pts, err := buildFaultList(tg.nl, cs.model, g.HaltCycle, cs.cycles, seed)
				if err != nil {
					t.Fatal(err)
				}
				return pts
			}
			a, b := build(DefaultSeed), build(DefaultSeed)
			if !bytes.Equal(encodeFaultList(a), encodeFaultList(b)) {
				t.Fatal("the default seed built two different fault lists")
			}
			if want := cs.cycles * len(tg.nl.FFs); len(a) != want {
				t.Fatalf("fault list has %d points, want %d (all flip-flops at %d cycles)", len(a), want, cs.cycles)
			}
			h := build(HeldOutSeed)
			if len(h) != len(a) {
				t.Fatalf("held-out seed built %d points, default %d", len(h), len(a))
			}
			ca, ch := cyclesOf(a), cyclesOf(h)
			if len(ca) != cs.cycles || len(ch) != cs.cycles {
				t.Fatalf("got %d and %d distinct cycles, want %d", len(ca), len(ch), cs.cycles)
			}
			if slices.Equal(ca, ch) {
				t.Fatal("the held-out seed drew the same cycles as the default seed")
			}
		})
	}
}

// chdirRoot runs the test from the repository root, where the benchmark
// runs, and returns scratch options.
func chdirRoot(t *testing.T) options {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	return options{seed: HeldOutSeed, tmpDir: t.TempDir(), stdout: io.Discard}
}

// TestFlippedReferenceFails runs a one-cycle campaign through the
// benchmark's own measurement and oracle check, then flips one reference
// verdict: the run must then report a failed point and a failing exit code.
func TestFlippedReferenceFails(t *testing.T) {
	opts := chdirRoot(t)
	cs := &campaignSpec{name: "test-avr-seu", cpu: "avr", program: progs.AVRFib, model: hafi.ModelSpec{Model: hafi.ModelSEU}, cycles: 1, sample: 8}
	m, err := cs.measure(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, ref, err := cs.referenceVerdicts(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != cs.sample {
		t.Fatalf("oracle checked %d points, want %d", len(idx), cs.sample)
	}
	res := m.result(nil, wrongVerdicts(m.want, idx, ref))
	if res.Failed != 0 || res.exitCode() != 0 {
		t.Fatalf("unmodified reference: %d failed, exit code %d", res.Failed, res.exitCode())
	}
	switch ref[0] {
	case vBenign:
		ref[0] = vSDC
	default:
		ref[0] = vBenign
	}
	res = m.result(nil, wrongVerdicts(m.want, idx, ref))
	if res.Failed != 1 || res.Correct {
		t.Fatalf("flipped reference: %d failed (correct=%v), want 1", res.Failed, res.Correct)
	}
	if errorFrac := float64(res.Failed) / float64(res.Attempted); errorFrac <= 0 {
		t.Fatalf("flipped reference: error_frac %g, want > 0", errorFrac)
	}
	if res.exitCode() == 0 {
		t.Fatal("flipped reference: exit code 0")
	}
}

// TestPinnedReferences checks that every committed default-seed reference
// matches its pinned digest and its workload's fault-list size.
func TestPinnedReferences(t *testing.T) {
	chdirRoot(t)
	for _, cs := range []*campaignSpec{campaignAVRSEU, campaignMSP430Stuck} {
		tg, err := newTarget(cs.cpu, cs.program)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loadReference(cs.name, cs.cycles*len(tg.nl.FFs)); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// metrics the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
	m := &measured{ref: &pass{res: &hafi.CampaignResult{Total: 1}}, setups: []float64{1}}
	e2e := campaignAVRSEU.endToEndMetrics(m)
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, x := range spec.EndToEnd {
		if got, ok := e2e[x.Name]; !ok || got.Unit != x.Unit {
			t.Errorf("end-to-end metric %s (%s): command prints %+v", x.Name, x.Unit, got)
		}
	}
	layers, err := perLayer(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(spec.PerLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(spec.PerLayer), len(layers))
	}
	for _, x := range spec.PerLayer {
		if got, ok := layers[x.Name]; !ok || got.Unit != x.Unit {
			t.Errorf("per-layer metric %s (%s): command prints %+v", x.Name, x.Unit, got)
		}
	}
}
