package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// suiteResult is one full invocation: every workload's end-to-end and
// per-layer pass. It is the file -compare reads.
type suiteResult struct {
	Env       suiteEnv     `json:"env"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	EndToEnd  []*runResult `json:"endToEnd"`
	PerLayer  []*runResult `json:"perLayer"`
	WallClock float64      `json:"wallClockSeconds"`
}

type suiteEnv struct {
	GitSHA    string `json:"gitSHA"`
	Dirty     bool   `json:"dirty"`
	GoVersion string `json:"goVersion"`
	NProc     int    `json:"nproc"`
	Time      string `json:"time"`
}

// trajectoryLine is one appended record of results/trajectory.jsonl: the
// environment plus every end-to-end value and its round-to-round spread.
type trajectoryLine struct {
	suiteEnv
	Seed      int64                             `json:"seed"`
	Seconds   float64                           `json:"seconds"`
	Correct   bool                              `json:"correct"`
	Workloads map[string]map[string]valueSpread `json:"workloads"`
}

type valueSpread struct {
	Value  float64 `json:"value"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
}

// runSuite runs every workload twice — end-to-end pass, then traced pass —
// each in a child process of its own so peak RSS and CPU time belong to one
// workload. It returns the process exit code.
func runSuite(dir string, seed int64, seconds, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	start := time.Now()
	suite := &suiteResult{Env: environment(), Seed: seed, Seconds: seconds}
	ok := true
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := runChild(self, dir, w.name, seed, seconds, scale, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if trace == 0 {
				suite.EndToEnd = append(suite.EndToEnd, res)
			} else {
				suite.PerLayer = append(suite.PerLayer, res)
			}
		}
	}
	suite.WallClock = time.Since(start).Seconds()

	if err := writeJSON(filepath.Join(dir, "out", "suite.json"), suite); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := appendTrajectory(filepath.Join(dir, "results", "trajectory.jsonl"), suite, ok); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("suite: %d workloads in %.0f s, all checks passed: %v; wrote %s\n",
		len(workloads), suite.WallClock, ok, filepath.Join(dir, "out", "suite.json"))
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload pass in a child process, echoes its report and
// reads the result file the child wrote.
func runChild(self, dir, name string, seed int64, seconds, scale float64, trace int) (*runResult, error) {
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds),
		"-scale", fmt.Sprint(scale),
		"-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	// Echo the report without the machine-readable last line.
	report := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndexByte(report, '\n'); i >= 0 {
		fmt.Println(report[:i])
	}
	if runErr != nil && stdout.Len() == 0 {
		return nil, runErr
	}
	suffix := ".json"
	if trace != 0 {
		suffix = ".layers.json"
	}
	data, err := os.ReadFile(filepath.Join(dir, "out", name+suffix))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// environment records where the numbers came from. Outside a git checkout
// the SHA reads "unknown".
func environment() suiteEnv {
	env := suiteEnv{
		GitSHA:    "unknown",
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Time:      time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return env
}

func appendTrajectory(path string, suite *suiteResult, ok bool) error {
	line := trajectoryLine{
		suiteEnv: suite.Env, Seed: suite.Seed, Seconds: suite.Seconds, Correct: ok,
		Workloads: map[string]map[string]valueSpread{},
	}
	for _, res := range suite.EndToEnd {
		row := map[string]valueSpread{}
		for name, mv := range res.Metrics {
			row[name] = valueSpread{Value: mv.Value, Spread: res.Spread[name], Unit: mv.Unit}
		}
		line.Workloads[res.Workload] = row
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
