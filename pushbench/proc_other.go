//go:build !linux

package main

import "os/exec"

// setDeathSignal is a no-op where the kernel offers no parent-death
// signal; the harness still stops every daemon it starts.
func setDeathSignal(*exec.Cmd) {}
