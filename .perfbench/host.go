package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

// commit returns the VCS revision the binary was built from, with a
// "+dirty" suffix for uncommitted changes, or "none" when the build
// was not made inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources of the program and the benchmark
// under the current directory (the repository root), so results from
// checkouts without git history still name the code they measured.
func sourceDigest() (string, error) {
	h := sha256.New()
	files := 0
	for _, dir := range []string{"internal", ".perfbench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
			files++
			_, err = io.Copy(h, f)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("hashing sources (run from the repository root): %w", err)
		}
	}
	return fmt.Sprintf("sha256:%x(%d files)", h.Sum(nil)[:8], files), nil
}
