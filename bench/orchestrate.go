package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// environment is what a reader needs to place a results file.
type environment struct {
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	TempDir     string `json:"temp_dir"`
	TempFS      string `json:"temp_dir_fs"`
	FlushPolicy string `json:"flush_policy"`
	Clients     int    `json:"serve_clients"`
	LoadModel   string `json:"load_model"`
}

func readEnvironment(clients int) environment {
	env := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", TempDir: os.TempDir(), TempFS: "unknown",
		FlushPolicy: "store default: fsync per sealed segment, directory sync, manifest log append",
		Clients:     clients,
		LoadModel:   "closed loop, one generator process",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(env.TempDir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if n, ok := names[int64(st.Type)]; ok {
			env.TempFS = n
		} else {
			env.TempFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return env
}

// child runs one workload in a fresh process, as the driver does, so
// heap a previous workload left behind never leaks into the next
// one's memory metrics. The child's report passes through; its last
// line is the result.
func child(name string, cfg config, traced bool, traceOut string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-clients", strconv.Itoa(cfg.clients),
	}
	if traced {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut+"."+name)
		}
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s seed %d: %w", name, cfg.seed, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, cfg.seed, err)
	}
	return &res, nil
}

// runAll measures every workload untraced, then traced, and writes
// the results file.
func runAll(cfg config, out, traceOut string) error {
	type pair struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	file := struct {
		Env     environment     `json:"environment"`
		Seed    uint64          `json:"seed"`
		Seconds float64         `json:"seconds"`
		Results map[string]pair `json:"results"`
		Claim   *string         `json:"claim"`
	}{Env: readEnvironment(cfg.clients), Seed: cfg.seed, Seconds: cfg.seconds, Results: map[string]pair{}}
	env, _ := json.MarshalIndent(file.Env, "", "  ")
	fmt.Printf("environment %s\n", env)

	failed := false
	for _, w := range workloads {
		var p pair
		for _, traced := range []bool{false, true} {
			res, cerr := child(w.name, cfg, traced, traceOut)
			if cerr != nil {
				return cerr
			}
			what := "end-to-end"
			if traced {
				p.PerLayer, what = res, "per-layer (traced run)"
			} else {
				p.EndToEnd = res
			}
			fmt.Printf("%s %s: correct=%v attempted=%d failed=%d\n", w.name, what, res.Correct, res.Attempted, res.Failed)
			printMetrics(res.Metrics)
			failed = failed || !res.Correct
		}
		file.Results[w.name] = p
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed its output checks")
	}
	return nil
}

// declared is one metric as BENCHMARK.json declares it; per-layer
// metrics carry no bound.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the
// default exclusive method — the rule the driver applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// checkRepeatability runs two sets of n seeds per workload and
// applies the driver's acceptance rule to every end-to-end metric:
// the interquartile spread as a share of the median stays within the
// bound (setup_s exempt), and the second set's median is not worse
// than the first's by more than the bound.
func checkRepeatability(cfg config, n int) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	bad := 0
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, wl := range workloads {
		var medians [2]map[string]float64
		for set := 0; set < 2; set++ {
			values := map[string][]float64{}
			for i := 0; i < n; i++ {
				run := cfg
				run.seed += uint64(set*n + i)
				res, err := child(wl.name, run, false, "")
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d failed its output checks", wl.name, run.seed)
				}
				for name, m := range res.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			medians[set] = map[string]float64{}
			for _, d := range bf.EndToEnd {
				q1, q2, q3 := quartiles(values[d.Name])
				spread := (q3 - q1) / q2
				medians[set][d.Name] = q2
				verdict := "ok"
				switch {
				case d.Name != "setup_s" && spread > d.Bound:
					verdict = "SPREAD EXCEEDS BOUND"
					bad++
				case d.Name != "setup_s" && spread > d.Bound/3:
					verdict = "above a third of the bound"
				}
				fmt.Fprintf(w, "%-13s set %d %-14s median %12.6g %-5s spread %6.2f%% bound %5.1f%%  %s\n",
					wl.name, set+1, d.Name, q2, d.Unit, 100*spread, 100*d.Bound, verdict)
			}
			w.Flush()
		}
		for _, d := range bf.EndToEnd {
			worse := (medians[1][d.Name] - medians[0][d.Name]) / medians[0][d.Name]
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "SECOND SET WORSE THAN BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-13s shift %-14s %+6.2f%% (worse is positive) bound %5.1f%%  %s\n", wl.name, d.Name, 100*worse, 100*d.Bound, verdict)
		}
		w.Flush()
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metric checks exceed their bounds", bad)
	}
	return nil
}
