package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp identifies the environment a result came from. Results are only
// compared when their stamps are equal.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Build is the hash of the benchmark executable, which embeds the
	// library: two results with equal Build ran the same code.
	Build string `json:"build"`
}

func currentStamp() stamp {
	st := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Build:      "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				st.Build = fmt.Sprintf("%x", h.Sum(nil)[:8])
			}
			f.Close()
		}
	}
	return st
}

// record is one run's result file: the stamp, every metric the run
// measured, the correctness fingerprints and the per-phase details.
type record struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	When     string             `json:"when"`
	Correct  bool               `json:"correct"`
	Fails    []string           `json:"fails,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Detail   map[string]any     `json:"detail"`
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue // not a result record
		}
		if rec.EndToEnd != nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

// checkRepeat checks that the trained model, the attack's decision hash
// and F1 repeat across earlier runs of the same build. The attack's
// inputs do not depend on the seed or the workload, so every earlier run
// counts.
func (r *runner) checkRepeat(dir string, st stamp) error {
	recs, err := loadRecords(dir)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Stamp != st || !rec.Correct {
			continue
		}
		r.check(rec.Detail["model_id"] == r.detail["model_id"],
			"model %v differs from %v of an earlier run", r.detail["model_id"], rec.Detail["model_id"])
		r.check(rec.Detail["decisions_sha256"] == r.detail["decisions_sha256"],
			"decision hash %v differs from %v of an earlier run", r.detail["decisions_sha256"], rec.Detail["decisions_sha256"])
		r.check(rec.EndToEnd["f1"] == r.e2e["f1"],
			"f1 %v differs from %v of an earlier run", r.e2e["f1"], rec.EndToEnd["f1"])
		break
	}
	return nil
}

// saveResult writes the run's record, and in traced runs its spans.
func (r *runner) saveResult(dir string, st stamp, trace bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	now := time.Now().UTC()
	base := fmt.Sprintf("%s-seed%d-trace%d-%s", r.wl.name, r.seed, btoi(trace), now.Format("20060102T150405.000000000"))
	rec := record{
		Stamp: st, Workload: r.wl.name, Seed: r.seed, Trace: trace, Seconds: r.secs.Seconds(),
		When: now.Format(time.RFC3339Nano), Correct: len(r.fails) == 0, Fails: r.fails,
		EndToEnd: r.e2e, Detail: r.detail,
	}
	if trace {
		rec.PerLayer = r.layer
		if err := r.tr.write(filepath.Join(dir, base+".spans")); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), raw, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printOverhead reports, per workload and end-to-end metric, the median
// of traced runs minus the median of untraced runs. It refuses to compare
// results whose stamps differ.
func printOverhead(w io.Writer, dir string) error {
	recs, err := loadRecords(dir)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no results in %s", dir)
	}
	for _, rec := range recs[1:] {
		if rec.Stamp != recs[0].Stamp {
			return fmt.Errorf("refusing to compare: stamp %+v differs from %+v", rec.Stamp, recs[0].Stamp)
		}
	}
	byWL := map[string][2][]record{}
	for _, rec := range recs {
		sides := byWL[rec.Workload]
		sides[btoi(rec.Trace)] = append(sides[btoi(rec.Trace)], rec)
		byWL[rec.Workload] = sides
	}
	names := make([]string, 0, len(byWL))
	for n := range byWL {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "stamp: %+v\n", recs[0].Stamp)
	for _, n := range names {
		sides := byWL[n]
		fmt.Fprintf(w, "%s: %d untraced, %d traced runs\n", n, len(sides[0]), len(sides[1]))
		if len(sides[0]) == 0 || len(sides[1]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			var u, t []float64
			for _, rec := range sides[0] {
				u = append(u, rec.EndToEnd[d.name])
			}
			for _, rec := range sides[1] {
				t = append(t, rec.EndToEnd[d.name])
			}
			mu, mt := median(u), median(t)
			share := 0.0
			if mu != 0 {
				share = (mt - mu) / mu
			}
			fmt.Fprintf(w, "  %-18s untraced %10.4f  traced %10.4f  overhead %+10.4f %s (%+.1f%%)\n",
				d.name, mu, mt, mt-mu, d.unit, 100*share)
		}
	}
	return nil
}
