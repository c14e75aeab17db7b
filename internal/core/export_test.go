package core

import "whereroam/internal/apn"

// MatchKeywords exposes the classifier's two keyword-table verdicts on
// one APN to the external tests.
func (c *Classifier) MatchKeywords(a apn.APN) (m2m, consumer bool) {
	return c.m2m.matches(a), c.consumer.matches(a)
}
