package main

import (
	"os"
	"runtime"
)

// stamp describes the environment a result was measured in: the commit,
// the cores, the Go runtime, the seed and the filesystem holding the
// state directory. run.sh passes the commit and the filesystem in.
func stamp(rc runConfig) map[string]any {
	return map[string]any{
		"commit":        envOr("PERFBENCH_COMMIT", "unknown"),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"seed":          rc.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       rc.seconds,
		"traced":        rc.traced,
		"state_fs":      envOr("PERFBENCH_STATE_FS", "unknown"),
	}
}

func envOr(name, fallback string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return fallback
}
