// Package cli is the scaffold every command except roamvet runs on. A
// command is a run(args, stdout) error; Main gives it one slog text
// handler on stderr, maps its error to the exit status (0 on success
// or -h, 2 for a usage error, 1 for anything else), and Create gives
// it outputs that appear at their path only when the run succeeds.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
)

// Main runs a command named name on the process's arguments and exits
// with the status its error maps to. It never returns.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{ReplaceAttr: dropTime})
	slog.SetDefault(slog.New(h).With("cmd", name))
	err := run(os.Args[1:], os.Stdout)
	code := ExitCode(err)
	if code != 0 {
		slog.Error(err.Error())
	}
	os.Exit(code)
}

func dropTime(_ []string, a slog.Attr) slog.Attr {
	if a.Key == slog.TimeKey {
		return slog.Attr{}
	}
	return a
}

// ExitCode is the status Main exits with for run's error: 0 for nil or
// flag.ErrHelp, 2 for a usage error, 1 for any other.
func ExitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// A usageError is a command line the command refuses.
type usageError struct{ error }

//roamvet:deadcode-ok errors.Is reaches it through interface{ Unwrap() error } to find flag.ErrHelp
func (e usageError) Unwrap() error { return e.error }

// Usagef returns a usage error, for which Main exits 2. It formats
// like fmt.Errorf, %w included.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Parse parses args into fs, which must use flag.ContinueOnError, and
// rejects stray positional arguments. A bad flag or a stray argument
// is a usage error; -h returns flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return Usagef("%w", err)
	}
	if fs.NArg() > 0 {
		return Usagef("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// A File is an output that appears at its path only when committed: it
// writes to a temporary file in the target's directory, which Commit
// renames over the target and Discard removes.
type File struct {
	*os.File
	target string // the rename destination; "" when writing the target itself
}

// Create opens an all-or-nothing output at path. When path already
// exists and is not a regular file (/dev/null, a pipe) it is written
// directly, since it cannot be renamed over.
func Create(path string) (*File, error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		return &File{File: f}, nil
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	out := &File{File: f, target: path}
	if err := f.Chmod(0o644); err != nil { // CreateTemp makes it 0600
		out.Discard()
		return nil, err
	}
	return out, nil
}

// Commit closes the file and renames it over the target. A failed
// Commit leaves the target as it was; Discard still cleans up.
func (f *File) Commit() error {
	if err := f.File.Close(); err != nil || f.target == "" {
		return err
	}
	return os.Rename(f.Name(), f.target)
}

// Discard closes and removes the temporary file. After a successful
// Commit it has nothing left to do, so it is meant to be deferred
// right after Create.
func (f *File) Discard() {
	f.File.Close()
	if f.target != "" {
		os.Remove(f.Name())
	}
}
