package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"politewifi/internal/telemetry"
)

// detCounters are a workload's deterministic cost counters for one
// operation: the program's own telemetry counters, a digest of its
// output, and the bytes it streamed or logged. They repeat exactly for
// a given binary, workload and seed, on any host, which makes them
// the numbers a CI budget can gate on where wall time is too noisy.
type detCounters struct {
	EventsFired     uint64 `json:"sched.events_fired"`
	Transmissions   uint64 `json:"medium.transmissions"`
	Deliveries      uint64 `json:"medium.deliveries"`
	Acks            uint64 `json:"mac.acks"`
	ProbesInjected  uint64 `json:"pipeline.probes_injected"`
	Injected        uint64 `json:"core.injected"`
	InjectDrops     uint64 `json:"core.inject_drops"`
	FaultsConsulted uint64 `json:"faults.consulted"`
	StreamBytes     uint64 `json:"stream_bytes"`
	LogBytes        uint64 `json:"log_bytes"`
	Digest          string `json:"digest"`
}

// fromReport fills the telemetry counters from a registry snapshot.
func (c *detCounters) fromReport(rep telemetry.Report) {
	for name, dst := range map[string]*uint64{
		"sched.events_fired":       &c.EventsFired,
		"medium.transmissions":     &c.Transmissions,
		"medium.deliveries":        &c.Deliveries,
		"pipeline.probes_injected": &c.ProbesInjected,
		"core.injected":            &c.Injected,
		"core.inject_drops":        &c.InjectDrops,
		"faults.consulted":         &c.FaultsConsulted,
	} {
		if cs := rep.Counter(name); cs != nil {
			*dst = cs.Value
		}
	}
	// mac.acks is a family: one counter per acknowledged frame type.
	for _, cs := range rep.Counters {
		if strings.HasPrefix(cs.Name, "mac.acks.") {
			c.Acks += cs.Value
		}
	}
}

func (c detCounters) String() string {
	b, _ := json.Marshal(c)
	return string(b)
}

// checkAgainstEarlier compares c with the counters an earlier traced
// run of this same binary recorded for the workload and seed, and
// records c when there are none yet. Keying on the binary's hash
// means a rebuilt program starts afresh instead of tripping over
// counters a different version legitimately produced.
func (c detCounters) checkAgainstEarlier(workload string, seed int64) error {
	bin, err := binaryHash()
	if err != nil {
		return fmt.Errorf("determinism: %w", err)
	}
	dir := filepath.Join(outDir, "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, bin[:16]))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return os.WriteFile(path, []byte(c.String()+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	var want detCounters
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("determinism: %s: %w", path, err)
	}
	if want != c {
		return fmt.Errorf("determinism: counters %s differ from an earlier run's %s", c, strings.TrimSpace(string(prev)))
	}
	return nil
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var binHash string

// binaryHash is the SHA-256 of the running executable.
func binaryHash() (string, error) {
	if binHash != "" {
		return binHash, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	binHash = hex.EncodeToString(h.Sum(nil))
	return binHash, nil
}

// provenance describes where and what was measured, so results from
// different hosts or commits are never compared blind.
func provenance(seed int64) map[string]any {
	p := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     "unknown",
		"seed":       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	if h, err := binaryHash(); err == nil {
		p["binary_sha256"] = h
	}
	// A one-minute load average above a quarter of a core before the
	// benchmark starts means something else is running on the host.
	if load, err := loadAverage(); err == nil {
		p["loadavg_1m"] = load
		p["host_shared"] = load > 0.25
	}
	return p
}

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

func loadAverage() (float64, error) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0, errors.New("empty /proc/loadavg")
	}
	return strconv.ParseFloat(fields[0], 64)
}
