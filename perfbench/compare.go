package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares two sets of run reports:
//
//	perfbench compare -base 'old/*.json' -new 'new/*.json'
//
// It exits 2 when the sets cannot be compared (different host fingerprints),
// 1 when a metric regressed or an exact counter changed, 0 otherwise.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	base := fs.String("base", "", "glob of the baseline reports")
	next := fs.String("new", "", "glob of the candidate reports")
	_ = fs.Parse(args)
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	a, err := loadReports(*base)
	var b []*report
	if err == nil {
		b, err = loadReports(*next)
	}
	var findings []finding
	if err == nil {
		findings, err = compareReports(def, a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		return 1
	}
	fmt.Println("no regression")
	return 0
}

func loadReports(glob string) ([]*report, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no reports match %q", glob)
	}
	var out []*report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// errFingerprint refuses a comparison across hosts.
var errFingerprint = errors.New("reports come from different hosts; refusing to compare")

// finding is one flagged difference between the sets.
type finding struct {
	Workload, Metric string
	Base, New        float64
	Detail           string
}

func (f finding) String() string {
	return fmt.Sprintf("%s %s: %s (base median %.4g, new median %.4g)", f.Workload, f.Metric, f.Detail, f.Base, f.New)
}

// compareReports flags, per workload, every end-to-end metric whose median
// got worse by more than max(bound × base median, 2 × base IQR), and every
// exact counter that differs between runs of the same seed. Only untraced
// reports carry end-to-end metrics; exact counters are compared in both
// modes.
func compareReports(def *definition, base, next []*report) ([]finding, error) {
	fp := base[0].Fingerprint
	for _, r := range append(append([]*report{}, base...), next...) {
		if r.Fingerprint != fp {
			return nil, fmt.Errorf("%w: %s vs %s", errFingerprint, fp, r.Fingerprint)
		}
	}
	var out []finding
	for _, wl := range workloadsOf(base, next) {
		for _, m := range def.EndToEnd {
			a := values(base, wl, m.Name)
			b := values(next, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := mb - ma
			if m.Better == "higher" {
				worse = ma - mb
			}
			q1, q3 := quantile(a, 0.25), quantile(a, 0.75)
			scale := max(math.Abs(ma), 1e-12)
			allowed := max(m.Bound*scale, 2*(q3-q1))
			if worse > allowed {
				out = append(out, finding{wl, m.Name, ma, mb,
					fmt.Sprintf("worse by %.1f%% (allowed %.1f%%)", 100*worse/scale, 100*allowed/scale)})
			}
		}
		for _, ra := range base {
			for _, rb := range next {
				if ra.Workload == wl && rb.Workload == wl && ra.Seed == rb.Seed && ra.Traced == rb.Traced {
					if d := diffExact(ra.Exact, rb.Exact); d != "" {
						out = append(out, finding{Workload: wl, Metric: "exact counters", Detail: fmt.Sprintf("seed %d: %s", ra.Seed, d)})
					}
				}
			}
		}
	}
	return dedupe(out), nil
}

func workloadsOf(sets ...[]*report) []string {
	seen := map[string]bool{}
	for _, s := range sets {
		for _, r := range s {
			seen[r.Workload] = true
		}
	}
	var out []string
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func values(rs []*report, wl, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

func dedupe(fs []finding) []finding {
	seen := map[string]bool{}
	var out []finding
	for _, f := range fs {
		k := f.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return strings.Compare(out[i].String(), out[j].String()) < 0 })
	return out
}
