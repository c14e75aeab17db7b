package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
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

// withArchiveDir must carry every exported field — they are all
// configuration — so a field added to Federation cannot be silently
// dropped from the scratch session fed-serve builds.
func TestWithArchiveDirCopiesConfig(t *testing.T) {
	src := &Federation{}
	v := reflect.ValueOf(src).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Int:
			f.SetInt(3)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("src")
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("field %s: teach this test to fill a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	src.sites = []*Site{{}} // built state must not travel

	got := reflect.ValueOf(src.withArchiveDir("scratch")).Elem()
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		switch {
		case field.Name == "ArchiveDir":
			if got.Field(i).String() != "scratch" {
				t.Errorf("ArchiveDir = %q, want the override", got.Field(i).String())
			}
		case field.IsExported():
			if !reflect.DeepEqual(got.Field(i).Interface(), v.Field(i).Interface()) {
				t.Errorf("exported field %s was not copied", field.Name)
			}
		case field.Name != "mu" && !got.Field(i).IsZero():
			t.Errorf("lazily built field %s travelled to the fresh session", field.Name)
		}
	}
}
