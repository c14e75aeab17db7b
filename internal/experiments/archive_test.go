package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"whereroam/internal/store"
)

// ArchiveTo persists the session's SMIP CDR/xDR feed while the
// catalog builds, and a store replay rebuilds the CDR plane from the
// archive — deterministically across worker counts.
func TestSessionArchiveReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	sess := NewSessionWorkers(1, 0.03, 2)
	ds, err := sess.ArchiveTo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Catalog.Records) == 0 {
		t.Fatal("ArchiveTo built an empty catalog")
	}

	// Archiving is a side artefact: the session's SMIP dataset must stay
	// the direct-generator build, bit-identical to a session that never
	// archived.
	plain := NewSessionWorkers(1, 0.03, 2)
	if !reflect.DeepEqual(sess.SMIP().Catalog.Records, plain.SMIP().Catalog.Records) {
		t.Error("ArchiveTo changed the session's SMIP dataset")
	}

	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.Verify(); !rep.OK() {
		t.Fatalf("archived session feed fails verification:\n%s", rep)
	}
	cat, stats, err := r.Replay(store.Query{}, sess.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsKept == 0 || len(cat.Records) == 0 {
		t.Fatal("replay produced no records")
	}
	cat1, _, err := r.Replay(store.Query{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cat1.Records, cat.Records) {
		t.Error("replay differs between worker counts")
	}
}
