package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runEnv makes the test binary act as smipsim, so each case runs the
// real command in a child process and sees its exit status.
const runEnv = "SMIPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNBIoTOutsideUnitIntervalRejected(t *testing.T) {
	for _, v := range []string{"1.7", "-0.5", "NaN"} {
		path := filepath.Join(t.TempDir(), "s.csv")
		cmd := exec.Command(os.Args[0], "-native", "20", "-roaming", "20", "-nbiot", v, "-out", path)
		cmd.Env = append(os.Environ(), runEnv+"=1")
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 || strings.Contains(string(out), "goroutine") {
			t.Errorf("-nbiot %s: exit status %d, want 2 without a stack trace; output:\n%s", v, code, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-nbiot %s left %s behind (stat: %v)", v, path, err)
		}
	}
}
