// Package libtest is test support (the name ends in "test"): no
// binary imports it, and it is a root all the same.
package libtest

import "whereroam/linttestfixture/deadcode/lib"

// Fixture builds a value for other packages' tests.
func Fixture() int { return lib.ForTestSupport() }
