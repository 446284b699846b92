package llm

import "specrepair/internal/aunit"

// verdict scores a candidate against one counterexample valuation through a
// probe test of its own, as the memo scores it through the probe it keeps
// for the counterexample's text.
func verdict(model *aunit.Model, valuation map[string][][]string) float64 {
	return judge(model, probe(valuation))
}
