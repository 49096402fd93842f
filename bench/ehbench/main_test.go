package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as the reference ping server, as
// the ehbench binary does, when the serve workloads start it.
func TestMain(m *testing.M) {
	if addr := os.Getenv(pingEnv); addr != "" {
		os.Exit(runPingServer(addr))
	}
	os.Exit(m.Run())
}
