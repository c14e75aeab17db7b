// Command cmd is the fixture's only binary: what it reaches is alive.
package main

import (
	"fmt"
	"sort"

	"whereroam/linttestfixture/deadcode/lib"
)

// Every declaration of a main package is a root, called or not.
func unusedInMain() {}

func main() {
	lib.Used()
	fmt.Println(lib.Named{}, lib.Red)
	sort.Sort(lib.ByLen{})
	fmt.Println(lib.Total([]lib.Shape{lib.Square{}}))
	var g lib.Gauge
	g.Add(1)
}
