package experiments

import (
	"reflect"
	"testing"

	"whereroam/internal/core"
)

// A device a site never observed has no class and no label there:
// fed-agreement and fed-validation skip on ok=false.
func TestSiteClassLabelUnknownDevice(t *testing.T) {
	for _, st := range fedSess.Sites() {
		// Summaries are device-sorted: one past the last is absent.
		sums := st.Summaries()
		absent := sums[len(sums)-1].Device + 1
		if c, ok := st.Class(absent); ok || c != 0 {
			t.Errorf("site %v: Class(absent) = %v, %v; want zero, false", st.Host(), c, ok)
		}
		if l, ok := st.Label(absent); ok || l != (core.Label{}) {
			t.Errorf("site %v: Label(absent) = %v, %v; want zero, false", st.Host(), l, ok)
		}
		// And a present one round-trips to its aligned result.
		res := st.pop.Results[0]
		if c, ok := st.Class(res.Device); !ok || c != res.Class {
			t.Errorf("site %v: Class(%v) = %v, %v; want %v, true", st.Host(), res.Device, c, ok, res.Class)
		}
	}
}

// The fed-* runners must be bit-identical across worker counts.
func TestFedRunnersWorkerCountInvariant(t *testing.T) {
	workerInvariant(t, 0.06, "fed-sites", "fed-agreement", "fed-validation", "fed-smip", "fed-m2m")
}

// The population sweeps (groupECDF behind fig7/fig8/fig10, t2's
// per-day label join, the fig5/fig6/fig9 crosstabs) are plain loops
// over a core.Derive population, so they must emit identical report
// values at any session worker count.
func TestRunnerAnalysesWorkerCountInvariant(t *testing.T) {
	workerInvariant(t, 0.08, "t2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
}

// workerInvariant runs each runner on seed-1 sessions at workers 1 and
// 4 and requires equal report values.
func workerInvariant(t *testing.T, factor float64, ids ...string) {
	t.Helper()
	serial, par := NewSessionWorkers(1, factor, 1), NewSessionWorkers(1, factor, 4)
	for _, id := range ids {
		r, _ := ByID(id)
		if a, b := r.Run(serial), r.Run(par); !reflect.DeepEqual(a.Values, b.Values) {
			t.Errorf("%s: values differ between workers 1 and 4\nserial: %v\npar:    %v", id, a.Values, b.Values)
		}
	}
}
