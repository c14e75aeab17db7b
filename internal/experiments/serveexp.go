package experiments

import (
	"fmt"
	"os"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/dataset"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

func init() {
	register("fed-serve", "Serving layer: archive-replayed per-site stats (roamd read model)", runFedServe)
}

// runFedServe computes, for every federation site archive, the exact
// statistics the roamd daemon serves over it: each site's archived
// CDR/xDR feed is replayed back into a catalog and the serving layer's
// stats and comparison views are derived with the same
// serve.ComputeStats / serve.ComputeCompare functions the HTTP
// handlers call. That shared code path is the report's point — a
// golden test can pin roamd's JSON responses bit-identical to these
// values.
//
// The archive is a scratch one that dataset.ArchiveFederation writes
// from the session's retained federation by re-walking the CDR/xDR
// plane alone — the federation is not synthesized a second time. An
// archive I/O failure becomes a note, not a panic.
//
// The archive persists the CDR/xDR plane only (radio events are
// live-only and the GSMA device database is not archived), so the
// served statistics are derived from archive-visible evidence alone;
// they intentionally differ from fed-sites' live-plane values.
func runFedServe(s *Session) *Report {
	r := &Report{
		ID:    "fed-serve",
		Title: "Archive-served per-site statistics",
		Paper: "§2/§5: operational visibility means querying the archived corpus, not rerunning collection — the serving layer answers from replayed slices",
	}

	dir, err := os.MkdirTemp("", "whereroam-fedserve-")
	if err != nil {
		r.Notes = append(r.Notes, "cannot create scratch archive: "+err.Error())
		return r
	}
	defer os.RemoveAll(dir)
	if err := dataset.ArchiveFederation(s.FederationData(), dir, 0); err != nil {
		r.Notes = append(r.Notes, "cannot write scratch archive: "+err.Error())
		return r
	}

	names, err := store.SiteDirs(dir)
	if err != nil {
		r.Notes = append(r.Notes, "cannot list archive root: "+err.Error())
		return r
	}

	tbl := analysis.NewTable("site", "devices", "records", "inbound", "inbound m2m", "events")
	cats := make(map[string]*catalog.Catalog, len(names))
	for _, name := range names {
		rp, err := store.Open(store.SiteDir(dir, name))
		if err != nil {
			r.Notes = append(r.Notes, "site "+name+": "+err.Error())
			continue
		}
		cat, _, err := rp.Replay(store.Query{}, s.Workers)
		if err != nil {
			r.Notes = append(r.Notes, "site "+name+": "+err.Error())
			continue
		}
		cats[name] = cat
		st := serve.ComputeStats(name, rp.Manifest().Days, cat, s.Workers)
		tbl.AddRow(name, st.Devices, st.Records,
			analysis.Pct(st.InboundShare), analysis.Pct(st.InboundM2MShare), st.Events)
		key := "site_" + name
		r.setValue(key+"_served_devices", float64(st.Devices))
		r.setValue(key+"_served_records", float64(st.Records))
		r.setValue(key+"_served_events", float64(st.Events))
		r.setValue(key+"_served_bytes", float64(st.Bytes))
		r.setValue(key+"_served_inbound_share", st.InboundShare)
		r.setValue(key+"_served_inbound_m2m_share", st.InboundM2MShare)
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("served_sites", float64(len(cats)))

	// The cross-site view roamd's /v1/compare serves: shared-device
	// counts prove the same fleets roam into every site (Table 1's
	// federation observation, now answerable from archives alone).
	cv := serve.ComputeCompare(cats, s.Workers)
	for _, p := range cv.Pairs {
		r.setValue(fmt.Sprintf("shared_%s_%s", p.A, p.B), float64(p.Shared))
	}
	r.Notes = append(r.Notes,
		"served values are derived from the archived CDR/xDR plane only (no radio events, no GSMA join) via the serve package's compute functions — the same code roamd's handlers execute")
	return r
}
