//go:build !linux

package main

import "errors"

// pinProcess is Linux-only; elsewhere the serve_* runs stay unpinned and say
// so in their notes.
func pinProcess() (int, error) { return 0, errors.New("CPU pinning is not implemented on this OS") }
