package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostPrint identifies the machine and toolchain a result was measured on.
// Results from different hosts are never compared.
type hostPrint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// codePrint identifies the code that produced a result. The executable's
// hash tells builds apart even where no VCS revision is embedded.
type codePrint struct {
	GitRev   string `json:"git_rev"` // "none" outside a git checkout
	GitDirty bool   `json:"git_dirty"`
	ExeHash  string `json:"exe_sha256"`
}

type fingerprint struct {
	Host hostPrint `json:"host"`
	Code codePrint `json:"code"`
}

func takeFingerprint() fingerprint {
	return fingerprint{
		Host: hostPrint{
			CPU:        cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Code: codePrint{GitRev: gitRev(), GitDirty: gitDirty(), ExeHash: exeHash()},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns HEAD's revision, or "none" when git or a repository is
// unavailable.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// gitDirty reports whether the working tree has uncommitted changes.
func gitDirty() bool {
	out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return err == nil && len(strings.TrimSpace(string(out))) > 0
}

// exeHash returns the SHA-256 of the running executable.
func exeHash() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
