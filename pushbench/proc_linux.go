package main

import (
	"os/exec"
	"syscall"
)

// setDeathSignal has the kernel kill a daemon if the harness dies
// without stopping it.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
