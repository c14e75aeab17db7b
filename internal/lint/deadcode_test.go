package lint_test

import (
	"testing"

	"whereroam/internal/lint"
	"whereroam/internal/lint/linttest"
)

// TestDeadcode runs the whole-module rule over a three-package fixture
// module: a binary, a library and a test-support package.
func TestDeadcode(t *testing.T) {
	linttest.RunModule(t, "deadcode", lint.RunDeadcode)
}
