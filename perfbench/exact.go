package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// sourceHash digests every regular file of the checkout outside dot
// directories, so exact counters are only compared between runs of the same
// program and benchmark source.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source hash: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkExact compares this run's exact counters with every earlier run of
// the same workload, seed, mode and source: work counters and answer
// quality repeat exactly, so any difference is a benchmark failure, not
// noise. The first run of a key records its counters.
func checkExact(cfg config, rep *report) error {
	if len(rep.Exact) == 0 || len(rep.Failures) > 0 {
		return nil
	}
	src, err := sourceHash(".")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.outDir, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json", cfg.workload, cfg.seed, b2i(cfg.trace), src))
	prev := map[string]int64{}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		out, err := json.MarshalIndent(rep.Exact, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(out, '\n'), 0o644)
	case err != nil:
		return err
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if diff := diffExact(prev, rep.Exact); diff != "" {
		return fmt.Errorf("differ from an earlier run of seed %d: %s", cfg.seed, diff)
	}
	return nil
}

// diffExact lists the counters whose values differ between a and b.
func diffExact(a, b map[string]int64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || va != vb {
			diffs = append(diffs, fmt.Sprintf("%s %d≠%d", k, va, vb))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}
