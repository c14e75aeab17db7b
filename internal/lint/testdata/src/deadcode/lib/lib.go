// Package lib is the library under the deadcode rule.
package lib

// Used is called from main; everything it reaches is alive.
func Used() { reachedHelper() }

func reachedHelper() {}

// Dead has no caller outside the tests.
func Dead() { onlyFromDead() } // want `func Dead is unreachable from every binary`

// onlyFromDead is orphaned with its one caller: the fixed point.
func onlyFromDead() {} // want `func onlyFromDead is unreachable`

// ForTestSupport is called only from the test-support package.
func ForTestSupport() int { return 1 }

// Named is printed by main: fmt finds String through fmt.Stringer.
type Named struct{}

// String is never selected in the module; Named satisfies a
// standard-library interface that has it.
func (Named) String() string { return "named" }

// Helper is on a reached type but nothing selects it.
func (Named) Helper() {} // want `method Named.Helper is unreachable`

// ByLen is handed to sort.Sort: all three methods stay.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Gauge has a Len and a Set but satisfies neither sort.Interface nor
// flag.Value: a shared method name alone keeps nothing.
type Gauge struct{ v int }

// Add is selected by main.
func (g *Gauge) Add(d int) { g.v += d }

// Len shares its name with sort.Interface's.
func (g *Gauge) Len() int { return g.v } // want `method Gauge.Len is unreachable`

// Set shares its name with flag.Value's.
func (g *Gauge) Set(v int) { g.v = v } // want `method Gauge.Set is unreachable`

// Shape is called through in Total, so Area is a live method name.
type Shape interface{ Area() float64 }

// Total calls Area through the interface.
func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Square is reached from main; its Area is reached by name.
type Square struct{}

// Area implements Shape.
func (Square) Area() float64 { return 1 }

// Circle implements Shape too, but no binary ever names it: the type
// is reported once, its methods are not.
type Circle struct{} // want `type Circle is unreachable`

// Area implements Shape.
func (Circle) Area() float64 { return 3 }

// Color is an enumeration: main names Red only, Green stays with the
// type.
type Color int

// The palette.
const (
	Red Color = iota
	Green
)

// Lonely is an untyped constant nothing reads.
const Lonely = 1 // want `const Lonely is unreachable`

// Oracle is kept on purpose, and keeps what it calls.
//
//roamvet:deadcode-ok test oracle: the reference the fast path is compared against
func Oracle() { oracleHelper() }

func oracleHelper() {}

func init() { registered() }

func registered() {}

var _ = assertion()

func assertion() int { return 0 }

// table is read by nothing.
var table = []int{1, 2, 3} // want `var table is unreachable`
