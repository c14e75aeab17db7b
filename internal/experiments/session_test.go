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
