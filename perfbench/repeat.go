package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the repository root, the
// directory the benchmark runs in.
func loadManifest() (*benchFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("the benchmark runs from the repository root: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checkMetrics reports whether a result holds exactly the manifest's
// metrics for its mode (end-to-end untraced, per-layer traced), each in
// its unit and finite.
func (bf *benchFile) checkMetrics(traced bool, got map[string]metric) error {
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		if !traced {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range bf.PerLayer {
		if traced {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json for this mode", name)
		}
	}
	return nil
}

// repeatMode runs one workload o.repeat times back to back through the
// command in BENCHMARK.json, one seed per run starting at o.seed, and
// prints each metric's median and quartiles (Python's
// statistics.quantiles, n=4) with the spread (q3−q1)/median next to the
// metric's bound. The spread of setup_s is shown but has no bound to
// meet; every other spread should stay under a third of its bound.
func repeatMode(o options) error {
	bf, err := loadManifest()
	if err != nil {
		return err
	}
	secs := o.seconds
	if secs == 0 {
		secs = bf.RunSeconds
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failed int64
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		args := append(append([]string(nil), bf.Command[1:]...),
			"--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", "0")
		cmd := exec.Command(bf.Command[0], args...)
		logPath := filepath.Join(o.work, fmt.Sprintf("repeat-%s-seed%d.log", o.workload, seed))
		logFile, err := os.Create(logPath)
		if err != nil {
			return err
		}
		cmd.Stderr = logFile
		out, err := cmd.Output()
		logFile.Close()
		if err != nil {
			return fmt.Errorf("seed %d: %v (log in %s)", seed, err, logPath)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %v", seed, err)
		}
		failed += res.Failed
		var line bytes.Buffer
		fmt.Fprintf(&line, "seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		logf("%s", line.String())
	}

	bounds := map[string]float64{}
	var order []string
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
		if _, ok := values[m.Name]; ok {
			order = append(order, m.Name)
		}
	}
	fmt.Printf("%s: %d runs, %d failed operations\n", o.workload, o.repeat, failed)
	fmt.Printf("%-28s %-6s %14s %14s %14s %8s %7s %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "")
	for _, name := range order {
		q1, q2, q3 := quartiles(values[name])
		spread := (q3 - q1) / q2
		verdict := ""
		if b, ok := bounds[name]; ok && name != "setup_s" {
			switch {
			case spread > b:
				verdict = "SPREAD OVER BOUND"
			case spread > b/3:
				verdict = "over a third of the bound"
			default:
				verdict = "ok"
			}
		}
		fmt.Printf("%-28s %-6s %14.4f %14.4f %14.4f %8.4f %7.3f %s\n", name, units[name], q2, q1, q3, spread, bounds[name], verdict)
	}
	return nil
}
