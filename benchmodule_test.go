// bench/ is a module of its own (a go.mod with a replace on this one),
// so `go test ./...` from the root never compiles it: an API deletion
// under internal/ that breaks the benchmark's build would otherwise
// surface only in CI's bench job, or when the benchmark is next run.
package whereroam

import (
	"os"
	"os/exec"
	"testing"
)

func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go vet")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command("go", "vet", "-C", "bench", "./...")
	// The replace directive resolves the only requirement locally;
	// GOPROXY=off turns any other lookup into an error, not a fetch.
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
