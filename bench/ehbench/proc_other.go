//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op where the kernel offers no parent-death
// signal; the server is still stopped on every normal exit path.
func killWithParent(*exec.Cmd) {}
