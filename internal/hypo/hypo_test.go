package hypo

import (
	"math"
	"strings"
	"testing"
)

func TestType1AllFindingsMustPass(t *testing.T) {
	h := Hypothesis{
		ID: "inv", Claim: "invariant holds", Type: Deterministic,
		Check: func() []Finding {
			return []Finding{
				{Label: "a", Pass: true},
				{Label: "b", Pass: false, Got: "broke"},
			}
		},
	}
	rep := Run("t1", []Hypothesis{h})
	if rep.Pass() {
		t.Fatal("one failing finding must fail the hypothesis")
	}
	if got := rep.Failed(); len(got) != 1 || got[0] != "inv" {
		t.Fatalf("Failed() = %v", got)
	}
}

func TestType1PassingRun(t *testing.T) {
	rep := Run("t1", []Hypothesis{{
		ID: "ok", Type: Deterministic,
		Check: func() []Finding { return []Finding{{Label: "x", Pass: true}} },
	}})
	if !rep.Pass() {
		t.Fatalf("expected pass, got %+v", rep.Outcomes)
	}
}

func TestType2DirectionalConsistency(t *testing.T) {
	// 2 of 3 seeds show a strong effect; one contradicts. Per the standard,
	// one contradicting seed refutes the hypothesis.
	effects := map[int64]float64{42: 3.0, 123: 2.5, 456: 1.1}
	h := Hypothesis{
		ID: "dom", Claim: "A beats B by >20%", Type: Statistical,
		Measure: func(seed int64) (Sample, error) {
			return Sample{Baseline: 100, Treatment: 100 * effects[seed]}, nil
		},
	}
	rep := Run("t2", []Hypothesis{h})
	if rep.Pass() {
		t.Fatal("a contradicting seed must refute the hypothesis")
	}
	o := rep.Outcomes[0]
	if o.EffectMin != 1.1 || o.EffectMax != 3.0 {
		t.Fatalf("effect min/max = %v/%v", o.EffectMin, o.EffectMax)
	}
	if o.MinEffect != DefaultMinEffect {
		t.Fatalf("default MinEffect = %v", o.MinEffect)
	}
}

func TestType2LowerIsBetter(t *testing.T) {
	h := Hypothesis{
		ID: "lat", Claim: "latency ≥20% lower", Type: Statistical, LowerIsBetter: true,
		Measure: func(seed int64) (Sample, error) {
			return Sample{Baseline: 100, Treatment: 50}, nil // halved: effect 2.0
		},
	}
	rep := Run("t2", []Hypothesis{h})
	if !rep.Pass() {
		t.Fatalf("expected pass: %+v", rep.Outcomes[0])
	}
	if rep.Outcomes[0].EffectMean != 2.0 {
		t.Fatalf("effect mean = %v, want 2.0", rep.Outcomes[0].EffectMean)
	}
}

func TestType2RequiresThreeSeeds(t *testing.T) {
	h := Hypothesis{
		ID: "few", Type: Statistical, Seeds: []int64{1, 2},
		Measure: func(int64) (Sample, error) { return Sample{1, 2}, nil },
	}
	rep := Run("t2", []Hypothesis{h})
	if rep.Pass() {
		t.Fatal("a 2-seed statistical hypothesis must be rejected")
	}
	if !strings.Contains(rep.Outcomes[0].Err, "≥3 seeds") {
		t.Fatalf("err = %q", rep.Outcomes[0].Err)
	}
}

func TestMalformedHypothesesFail(t *testing.T) {
	rep := Run("bad", []Hypothesis{
		{ID: "no-check", Type: Deterministic},
		{ID: "no-measure", Type: Statistical},
		{ID: "no-type"},
	})
	if rep.Pass() {
		t.Fatal("malformed hypotheses must fail, not pass vacuously")
	}
	if len(rep.Failed()) != 3 {
		t.Fatalf("Failed() = %v", rep.Failed())
	}
}

func TestEffectZeroDenominator(t *testing.T) {
	if e := effect(Sample{Baseline: 0, Treatment: 5}, false); !math.IsInf(e, 1) {
		t.Fatalf("effect with zero baseline = %v, want +Inf", e)
	}
	if e := effect(Sample{Baseline: 0, Treatment: 0}, false); e != 1 {
		t.Fatalf("0/0 effect = %v, want 1", e)
	}
}

func TestFprintReportsVerdict(t *testing.T) {
	var sb strings.Builder
	rep := Run("print", []Hypothesis{{
		ID: "bad", Claim: "fails", Type: Deterministic,
		Check: func() []Finding { return []Finding{{Label: "l", Pass: false, Got: "nope"}} },
	}})
	rep.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"FAIL", "bad", "nope"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
