package experiments

import (
	"whereroam/internal/dataset"
	"whereroam/internal/store"
)

// ArchiveTo builds the session's SMIP population through the per-event
// measurement path while persisting its CDR/xDR feed to a segmented
// archive at dir (see internal/store) — persist-and-ingest in one
// pass. The archived plane is the CDR/xDR feed (radio events are
// live-only), which is exactly what a store replay rebuilds.
//
// The returned dataset is a side artefact: SMIP() uses the direct
// aggregate generator — a different dataset family — so archiving
// never changes a session's experiment outputs.
func (s *Federation) ArchiveTo(dir string) (*dataset.SMIPDataset, error) {
	cfg := dataset.DefaultSMIPConfig()
	cfg.Seed = s.Seed
	cfg.NativeMeters = s.scaled(cfg.NativeMeters)
	cfg.RoamingMeters = s.scaled(cfg.RoamingMeters)
	cfg.Workers = s.Workers
	w, err := store.NewWriter(dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, 0)
	if err != nil {
		return nil, err
	}
	cfg.ArchiveCDRs = w.Sink()
	ds := dataset.GenerateSMIPStreaming(cfg)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return ds, nil
}
