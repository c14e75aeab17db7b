// The benchmark trajectory is committed as data: BENCH_<commit>.json at
// the module root holds one `bash bench/run.sh -seed 1 -out` result of
// that commit. Each file must say where it was measured, carry every
// end-to-end metric BENCHMARK.json declares for every workload, and
// name a commit this tree descends from, so that two files can be read
// as points on one line.
package whereroam

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchDecl is the part of BENCHMARK.json the files are checked against.
type benchDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
}

// benchFile is the part of a `run.sh -out` result the checks read.
type benchFile struct {
	Environment map[string]any `json:"environment"`
	Results     map[string]struct {
		EndToEnd struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"end_to_end"`
	} `json:"results"`
}

func TestBenchFilesWellFormed(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no BENCH_*.json committed")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			var f benchFile
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			if len(f.Environment) == 0 {
				t.Fatal("no environment block")
			}
			commit, _ := f.Environment["commit"].(string)
			if want := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"); commit != want {
				t.Fatalf("environment.commit is %q, the file name says %q", commit, want)
			}
			for _, w := range decl.Workloads {
				res, ok := f.Results[w.Name]
				if !ok {
					t.Errorf("workload %s: no result", w.Name)
					continue
				}
				if !res.EndToEnd.Correct {
					t.Errorf("workload %s: the run was not correct", w.Name)
				}
				for _, m := range decl.EndToEnd {
					if v, ok := res.EndToEnd.Metrics[m.Name]; !ok || v.Value <= 0 {
						t.Errorf("workload %s: end-to-end metric %s missing or not positive", w.Name, m.Name)
					}
				}
			}
			checkAncestor(t, commit)
		})
	}
}

// checkAncestor fails unless commit is an ancestor of HEAD. It skips
// where that cannot be told: no git, no .git, or a shallow clone that
// does not hold the commit.
func checkAncestor(t *testing.T, commit string) {
	t.Helper()
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git on PATH: cannot check that the commit is an ancestor of HEAD")
	}
	if _, err := os.Stat(".git"); err != nil {
		t.Skip("no .git: cannot check that the commit is an ancestor of HEAD")
	}
	if exec.Command("git", "cat-file", "-e", commit+"^{commit}").Run() != nil {
		if out, _ := exec.Command("git", "rev-parse", "--is-shallow-repository").Output(); strings.TrimSpace(string(out)) == "true" {
			t.Skipf("shallow clone without %s: cannot check that it is an ancestor of HEAD", commit)
		}
		t.Fatalf("commit %s is not in the repository", commit)
	}
	if out, err := exec.Command("git", "merge-base", "--is-ancestor", commit, "HEAD").CombinedOutput(); err != nil {
		t.Fatalf("commit %s is not an ancestor of HEAD: %v %s", commit, err, out)
	}
}
