// Package hypo is the repo's hypothesis-driven experiment harness: every
// quantitative claim an experiment makes is declared as a typed hypothesis
// and machine-checked, instead of living as a prose note nobody re-reads.
// The taxonomy follows the BLIS experiment standards the survey's
// evaluation-methodology discussion calls for (see DESIGN.md §3.10):
//
//   - Type 1 (deterministic): exact invariants — bitwise equality,
//     conservation laws, monotone orderings. One run suffices; a single
//     failing check is ALWAYS a bug, never noise.
//   - Type 2 (statistical): metric comparisons whose values vary by seed.
//     At least three seeded samples, an explicit effect-size threshold
//     (default >20%), and directional consistency: the predicted direction
//     must hold in EVERY sample — one contradicting seed refutes the claim.
//
// A Report is the pass/fail verdict of running a hypothesis set; Fprint
// renders it for terminals and CI logs.
package hypo

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Type classifies a hypothesis per the Type 1 / Type 2 taxonomy.
type Type int

const (
	// Deterministic (Type 1): exact properties; failure is always a bug.
	Deterministic Type = 1
	// Statistical (Type 2): seeded metric comparisons with an effect-size
	// threshold and directional consistency across all samples.
	Statistical Type = 2
)

func (t Type) String() string {
	switch t {
	case Deterministic:
		return "type1-deterministic"
	case Statistical:
		return "type2-statistical"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// DefaultSeeds is the standard Type-2 seed set (per the BLIS standard:
// minimum three seeds, fixed so reruns are comparable).
var DefaultSeeds = []int64{42, 123, 456}

// DefaultMinEffect is the default Type-2 effect-size threshold: the
// treatment must improve on the baseline by more than 20% in every sample.
const DefaultMinEffect = 1.2

// Finding is one elementary observation: a single deterministic check, or
// one seeded sample of a statistical comparison.
type Finding struct {
	// Label identifies the configuration checked (a table row, a seed, a
	// worker count).
	Label string
	Pass  bool
	// Got describes the observed value(s); for statistical samples it
	// includes the baseline, treatment and effect ratio.
	Got string
}

// Sample is one seeded measurement of a Type-2 comparison.
type Sample struct {
	Baseline  float64 // the reference configuration's metric
	Treatment float64 // the claimed-better configuration's metric
}

// Hypothesis declares one machine-checkable claim.
//
// Type 1 hypotheses set Check: it returns one finding per configuration
// verified; the hypothesis passes iff every finding passes.
//
// Type 2 hypotheses set Measure (+ optionally Seeds, MinEffect,
// LowerIsBetter): Measure is run once per seed, the effect size
// treatment/baseline (or baseline/treatment when LowerIsBetter) must reach
// MinEffect in every sample.
type Hypothesis struct {
	ID    string
	Claim string // the prose claim being checked, e.g. "staged ≥3× legacy msgs/sec"
	Type  Type

	// Check implements a Type-1 invariant. All findings must pass.
	Check func() []Finding

	// Measure implements a Type-2 comparison for one seed.
	Measure func(seed int64) (Sample, error)
	// Seeds defaults to DefaultSeeds. Fewer than 3 seeds is rejected.
	Seeds []int64
	// MinEffect is the required effect-size ratio in every sample
	// (default DefaultMinEffect = 1.2, i.e. >20%). Use 1.0 for bound
	// claims ("metric stays ≤ baseline").
	MinEffect float64
	// LowerIsBetter inverts the effect ratio: the treatment metric is
	// claimed to be LOWER than the baseline (latency, bytes, allocs).
	LowerIsBetter bool
}

// Outcome is the evaluated result of one hypothesis.
type Outcome struct {
	ID       string
	Claim    string
	Type     string
	Pass     bool
	Err      string
	Findings []Finding
	// Effect summary across samples (Type 2 only): min/mean/max of the
	// directional improvement ratio, and the threshold it was held to.
	EffectMin  float64
	EffectMean float64
	EffectMax  float64
	MinEffect  float64
}

// Report is the result of running a hypothesis set.
type Report struct {
	Name     string
	Outcomes []Outcome
}

// Pass reports whether every hypothesis passed.
func (r *Report) Pass() bool {
	for _, o := range r.Outcomes {
		if !o.Pass {
			return false
		}
	}
	return true
}

// Failed returns the ids of failing hypotheses, in report order.
func (r *Report) Failed() []string {
	var ids []string
	for _, o := range r.Outcomes {
		if !o.Pass {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

// Run evaluates every hypothesis and returns the report. A malformed
// hypothesis (no Check/Measure, or a Type-2 with fewer than 3 seeds) is
// reported as a failing outcome rather than a panic: a broken gate must
// fail the gate.
func Run(name string, hs []Hypothesis) *Report {
	rep := &Report{Name: name}
	for _, h := range hs {
		rep.Outcomes = append(rep.Outcomes, eval(h))
	}
	return rep
}

func eval(h Hypothesis) Outcome {
	o := Outcome{ID: h.ID, Claim: h.Claim, Type: h.Type.String()}
	switch h.Type {
	case Deterministic:
		if h.Check == nil {
			o.Err = "type-1 hypothesis has no Check"
			return o
		}
		o.Findings = h.Check()
		if len(o.Findings) == 0 {
			o.Err = "type-1 check produced no findings"
			return o
		}
		o.Pass = true
		for _, f := range o.Findings {
			if !f.Pass {
				o.Pass = false
			}
		}
		return o
	case Statistical:
		if h.Measure == nil {
			o.Err = "type-2 hypothesis has no Measure"
			return o
		}
		seeds := h.Seeds
		if seeds == nil {
			seeds = DefaultSeeds
		}
		if len(seeds) < 3 {
			o.Err = fmt.Sprintf("type-2 hypothesis needs ≥3 seeds, got %d", len(seeds))
			return o
		}
		minEffect := h.MinEffect
		if minEffect == 0 {
			minEffect = DefaultMinEffect
		}
		o.MinEffect = minEffect
		o.Pass = true
		var sum float64
		o.EffectMin = math.Inf(1)
		o.EffectMax = math.Inf(-1)
		for _, seed := range seeds {
			s, err := h.Measure(seed)
			if err != nil {
				o.Pass = false
				o.Err = fmt.Sprintf("seed %d: %v", seed, err)
				o.Findings = append(o.Findings, Finding{Label: fmt.Sprintf("seed=%d", seed), Pass: false, Got: err.Error()})
				continue
			}
			eff := effect(s, h.LowerIsBetter)
			pass := eff >= minEffect
			if !pass {
				o.Pass = false // directional consistency: one contradicting seed refutes
			}
			sum += eff
			o.EffectMin = math.Min(o.EffectMin, eff)
			o.EffectMax = math.Max(o.EffectMax, eff)
			o.Findings = append(o.Findings, Finding{
				Label: fmt.Sprintf("seed=%d", seed), Pass: pass,
				Got: fmt.Sprintf("baseline=%g treatment=%g effect=%.3fx (need ≥%.2fx)", s.Baseline, s.Treatment, eff, minEffect),
			})
		}
		if n := len(o.Findings); n > 0 {
			o.EffectMean = sum / float64(n)
		}
		if math.IsInf(o.EffectMin, 1) {
			o.EffectMin, o.EffectMax = 0, 0
		}
		return o
	default:
		o.Err = fmt.Sprintf("unknown hypothesis type %d", int(h.Type))
		return o
	}
}

// effect computes the directional improvement ratio: how many times better
// the treatment is than the baseline in the predicted direction. A zero
// denominator with a nonzero numerator counts as an unbounded improvement.
func effect(s Sample, lowerIsBetter bool) float64 {
	num, den := s.Treatment, s.Baseline
	if lowerIsBetter {
		num, den = s.Baseline, s.Treatment
	}
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// Fprint renders the report as an aligned pass/fail table for terminals and
// CI step logs.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "hypothesis run %q: %d hypotheses\n", r.Name, len(r.Outcomes))
	for _, o := range r.Outcomes {
		status := "PASS"
		if !o.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-28s %-20s %s\n", status, o.ID, o.Type, o.Claim)
		if o.Err != "" {
			fmt.Fprintf(w, "         error: %s\n", o.Err)
		}
		for _, f := range o.Findings {
			if f.Pass && o.Pass {
				continue // details only for failures (and all, when the hypothesis failed)
			}
			mark := "ok"
			if !f.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "         %-4s %-18s %s\n", mark, f.Label, f.Got)
		}
		if o.Type == Statistical.String() && len(o.Findings) > 0 && o.Err == "" {
			fmt.Fprintf(w, "         effect min/mean/max = %.3f/%.3f/%.3f (threshold %.2f)\n",
				o.EffectMin, o.EffectMean, o.EffectMax, o.MinEffect)
		}
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL: " + strings.Join(r.Failed(), ", ")
	}
	fmt.Fprintf(w, "hypothesis run %q: %s\n", r.Name, verdict)
}
