package core

import (
	"sort"

	"whereroam/internal/catalog"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
)

// Population is the classified device population of one observing
// operator — the paper's §4 object: the devices-catalog collapsed per
// device and joined with each device's classifier verdict (§4.3) and
// roaming label (§4.2). The three slices are position-aligned
// (Results[i] and Labels[i] describe Sums[i]) and sorted by strictly
// ascending device ID. A Population is never modified after Derive
// returns, so any number of goroutines may read it.
type Population struct {
	// Sums holds the per-device window aggregates.
	Sums []catalog.Summary
	// Results holds the standard classifier's verdicts.
	Results []Result
	// Labels holds each device's dominant roaming label.
	Labels []Label
}

// Derive builds the classified population of a catalog: per-device
// summaries joined with db (nil = no GSMA join), the standard
// classifier's verdicts, and labeler's roaming labels. workers
// parallelizes the summaries (below one = one worker per CPU);
// classification and labelling are serial passes. The result is
// bit-identical at any worker count.
func Derive(cat *catalog.Catalog, db *gsma.DB, labeler *Labeler, workers int) *Population {
	sums := cat.SummariesWorkers(db, workers)
	p := &Population{
		Sums:    sums,
		Results: NewClassifier().ClassifyWorkers(sums, workers),
		Labels:  make([]Label, len(sums)),
	}
	for i := range sums {
		p.Labels[i] = labeler.LabelSummary(&sums[i])
	}
	return p
}

// Find returns the position of a device in the aligned slices; ok is
// false when the population does not contain it. Sums is sorted by
// device, so the lookup is a binary search and needs no side index.
func (p *Population) Find(dev identity.DeviceID) (int, bool) {
	i := sort.Search(len(p.Sums), func(i int) bool { return p.Sums[i].Device >= dev })
	return i, i < len(p.Sums) && p.Sums[i].Device == dev
}
