package main

import (
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill cmd's process if ehbench dies
// first, so no server outlives the benchmark.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
