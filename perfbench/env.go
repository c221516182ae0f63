package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// environment is stamped into every result: what the numbers were measured
// on. The tensor package picks its axpy kernel from avx/avx512f at start-up
// and does not export its choice, so the flags that decide it are recorded.
type environment struct {
	CPUModel   string          `json:"cpu_model"`
	NProc      int             `json:"nproc"`
	GOMAXPROCS map[string]int  `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Commit     string          `json:"commit"`
	Source     string          `json:"source_sha256"`
	CPUFlags   map[string]bool `json:"cpu_flags"`
}

func readEnvironment(root, commit string, procs map[string]int) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     sourceDigest(root),
		CPUFlags:   map[string]bool{"avx": false, "avx2": false, "avx512f": false},
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return env
	}
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if env.CPUModel == "" {
				env.CPUModel = strings.TrimSpace(val)
			}
		case "flags":
			for _, f := range strings.Fields(val) {
				if _, ok := env.CPUFlags[f]; ok {
					env.CPUFlags[f] = true
				}
			}
		}
	}
	return env
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), naming the code measured when no commit is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
