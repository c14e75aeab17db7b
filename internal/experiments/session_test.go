package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/dataset"
)

// Sessions share nothing mutable (at most gsma.Synthesize's read-only
// catalog): two of them can run the same §4 runner on different
// goroutines (CI runs this under -race), and a session nobody
// references any more is garbage — the derived MNO view lives on the
// session, not in a package-level table keyed by it.
func TestSessionsRunConcurrentlyAndAreCollectable(t *testing.T) {
	r, ok := ByID("t2")
	if !ok {
		t.Fatal("t2 not registered")
	}
	finalized := make(chan struct{}, 2)
	values := make([]map[string]float64, 2)
	var wg sync.WaitGroup
	for i := range values {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSessionWorkers(1, 0.05, 2)
			runtime.SetFinalizer(s, func(*Session) { finalized <- struct{}{} })
			values[i] = r.Run(s).Values
		}()
	}
	wg.Wait()
	if len(values[0]) == 0 || !reflect.DeepEqual(values[0], values[1]) {
		t.Fatalf("concurrent sessions at one seed disagree:\n%v\n%v", values[0], values[1])
	}

	// The first cycle finds the sessions unreachable and queues their
	// finalizers; the second lets the finalizer goroutine have run.
	runtime.GC()
	runtime.GC()
	for range values {
		select {
		case <-finalized:
		case <-time.After(10 * time.Second):
			t.Fatal("a dropped session was not collected: something still references it")
		}
	}
}

// The runners over the session's M2M aggregate may run on one session
// together (run under -race): the aggregate is built once and only
// read, so each report equals the one a fresh session gives it alone.
func TestM2MRunnersShareOneAggregate(t *testing.T) {
	ids := []string{"t1", "fig2", "fig3l", "fig3c", "fig3r", "ext-latency"}
	shared := NewSessionWorkers(1, 0.05, 2)
	got := make([]string, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Run(shared).String()
		}()
	}
	wg.Wait()
	view := shared.M2M()
	for i, id := range ids {
		r, _ := ByID(id)
		if want := r.Run(NewSessionWorkers(1, 0.05, 2)).String(); got[i] != want {
			t.Errorf("%s on a shared session differs from a fresh one:\n%s\nwant\n%s", id, got[i], want)
		}
	}
	if again := shared.M2M(); again != view {
		t.Error("the session rebuilt its M2M aggregate")
	}
}

// A session keeps views, not catalogs: after every runner but the
// federation's has run on it — all at once, so under -race this also
// checks that each view is built once and only read — no daily record
// is reachable from the session. MNO and SMIP still hand callers the
// whole dataset, the same bytes the generators give directly.
func TestSessionKeepsNoDailyRecords(t *testing.T) {
	s := NewSessionWorkers(1, 0.05, 2)
	var wg sync.WaitGroup
	for _, r := range All() {
		if strings.HasPrefix(r.ID, "fed-") {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(s)
		}()
	}
	wg.Wait()
	if path, ok := recordsAt(reflect.ValueOf(s), "session", map[reached]bool{}); ok {
		t.Errorf("the session holds daily records at %s", path)
	}

	mno := s.MNO()
	if path, ok := recordsAt(reflect.ValueOf(mno), "mno", map[reached]bool{}); !ok || path != "mno.Catalog.Records" {
		t.Fatalf("the walk finds the MNO dataset's records at %q (found %v)", path, ok)
	}
	mnoCfg := dataset.DefaultMNOConfig()
	mnoCfg.Seed, mnoCfg.Devices, mnoCfg.Workers = s.Seed, s.scaled(mnoCfg.Devices), s.Workers
	if got, want := catalogDigest(t, mno.Catalog), catalogDigest(t, dataset.GenerateMNO(mnoCfg).Catalog); got != want {
		t.Errorf("Session.MNO catalog digest %s, GenerateMNO %s", got, want)
	}

	smip := s.SMIP()
	if len(smip.Catalog.Records) == 0 {
		t.Fatal("Session.SMIP returned no records")
	}
	smipCfg := dataset.DefaultSMIPConfig()
	smipCfg.Seed, smipCfg.Workers = s.Seed, s.Workers
	smipCfg.NativeMeters, smipCfg.RoamingMeters = s.scaled(smipCfg.NativeMeters), s.scaled(smipCfg.RoamingMeters)
	if got, want := catalogDigest(t, smip.Catalog), catalogDigest(t, dataset.GenerateSMIP(smipCfg).Catalog); got != want {
		t.Errorf("Session.SMIP catalog digest %s, GenerateSMIP %s", got, want)
	}
}

// reached is one value the record walk has entered: the same address
// seen as another type is another value.
type reached struct {
	addr uintptr
	typ  reflect.Type
}

var dailyRecords = reflect.TypeFor[[]catalog.DailyRecord]()

// recordsAt walks everything reachable from v — through pointers,
// structs, arrays, slices, maps and interfaces, entering each pointer,
// map and slice once — and returns the path of the first non-empty
// []catalog.DailyRecord it meets.
func recordsAt(v reflect.Value, path string, seen map[reached]bool) (string, bool) {
	enter := func(addr uintptr) bool {
		k := reached{addr, v.Type()}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !enter(v.Pointer()) {
			return "", false
		}
		return recordsAt(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return "", false
		}
		return recordsAt(v.Elem(), path, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if p, ok := recordsAt(v.Field(i), path+"."+v.Type().Field(i).Name, seen); ok {
				return p, true
			}
		}
	case reflect.Slice:
		if v.Type() == dailyRecords && v.Len() > 0 {
			return path, true
		}
		if v.Len() == 0 || !enter(v.Pointer()) {
			return "", false
		}
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			if p, ok := recordsAt(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); ok {
				return p, true
			}
		}
	case reflect.Map:
		if v.Len() == 0 || !enter(v.Pointer()) {
			return "", false
		}
		for it := v.MapRange(); it.Next(); {
			if p, ok := recordsAt(it.Key(), path+"{key}", seen); ok {
				return p, true
			}
			if p, ok := recordsAt(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); ok {
				return p, true
			}
		}
	}
	return "", false
}

// catalogDigest is the SHA-256 of cat's CSV form.
func catalogDigest(t *testing.T, cat *catalog.Catalog) string {
	t.Helper()
	h := sha256.New()
	if err := cat.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
