package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv makes the test binary run Main with the run function named
// by the variable's value, so TestMainExitStatus sees real exit codes.
const mainEnv = "CLI_TEST_MAIN"

var runs = map[string]func([]string, io.Writer) error{
	"ok":    func([]string, io.Writer) error { return nil },
	"fail":  func([]string, io.Writer) error { return errors.New("disk on fire") },
	"usage": func([]string, io.Writer) error { return Usagef("-n %d is negative", -1) },
	"flags": func(args []string, _ io.Writer) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("n", 0, "a number")
		return Parse(fs, args)
	},
}

func TestMain(m *testing.M) {
	if name := os.Getenv(mainEnv); name != "" {
		os.Args = append([]string{"t"}, strings.Fields(os.Getenv(mainEnv+"_ARGS"))...)
		Main("t", runs[name])
	}
	os.Exit(m.Run())
}

// TestMainExitStatus runs Main in a child process for each kind of
// outcome and checks the status and what reaches stderr.
func TestMainExitStatus(t *testing.T) {
	for _, c := range []struct {
		run, args string
		code      int
		stderr    string // a substring of stderr; "" means stderr is empty
	}{
		{"ok", "", 0, ""},
		{"fail", "", 1, `level=ERROR msg="disk on fire" cmd=t`},
		{"usage", "", 2, `msg="-n -1 is negative" cmd=t`},
		{"flags", "-n 3", 0, ""},
		{"flags", "-h", 0, "Usage of t"},
		{"flags", "-n x", 2, "invalid value"},
		{"flags", "-n 3 extra", 2, `msg="unexpected argument \"extra\""`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainEnv+"="+c.run, mainEnv+"_ARGS="+c.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatal(err)
		}
		got := stderr.String()
		if code := cmd.ProcessState.ExitCode(); code != c.code {
			t.Errorf("%s %q: exit status %d, want %d; stderr:\n%s", c.run, c.args, code, c.code, got)
		}
		if c.stderr == "" && got != "" || !strings.Contains(got, c.stderr) {
			t.Errorf("%s %q: stderr %q, want it to contain %q", c.run, c.args, got, c.stderr)
		}
		if strings.Contains(got, "time=") || strings.Contains(got, "goroutine") {
			t.Errorf("%s %q: stderr carries a timestamp or a stack trace:\n%s", c.run, c.args, got)
		}
	}
}

func TestExitCodeSeesWrappedUsageErrors(t *testing.T) {
	usage := Usagef("bad -x")
	for err, want := range map[error]int{
		nil:                                 0,
		flag.ErrHelp:                        0,
		Usagef("%w", flag.ErrHelp):          0,
		usage:                               2,
		fmt.Errorf("replay: %w", usage):     2,
		errors.New("bad -x"):                1,
		fmt.Errorf("x: %w", os.ErrNotExist): 1,
	} {
		if got := ExitCode(err); got != want {
			t.Errorf("ExitCode(%v) = %d, want %d", err, got, want)
		}
	}
}

// dirEntries lists dir, so a test can see that no temporary file is
// left behind.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

func TestCreateCommitReplacesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Discard()
	if _, err := f.WriteString("new"); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Errorf("target reads %q before Commit, want the old contents", b)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Discard() // the deferred call after a Commit must not undo it
	if b, _ := os.ReadFile(path); string(b) != "new" {
		t.Errorf("target reads %q after Commit, want %q", b, "new")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("committed file mode %v (%v), want 0644", fi.Mode(), err)
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only out.csv", names)
	}
}

func TestDiscardLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("half a file"); err != nil {
		t.Fatal(err)
	}
	f.Discard()
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Errorf("a discarded output left %v behind", names)
	}
	if _, err := Create(filepath.Join(dir, "missing", "out.csv")); err == nil {
		t.Error("Create in a missing directory succeeded")
	}
}

// TestCreateDevNull pins the case CI relies on: a target that exists and
// is not a regular file is written in place, and Commit keeps it.
func TestCreateDevNull(t *testing.T) {
	f, err := Create(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Discard()
	if _, err := f.WriteString("discarded"); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode().IsRegular() {
		t.Errorf("%s is no longer a device after Commit: %v %v", os.DevNull, fi.Mode(), err)
	}
}
