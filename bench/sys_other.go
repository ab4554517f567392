//go:build !linux

package main

import (
	"errors"
	"time"
)

// The benchmark's CPU, RSS and load readings come from getrusage and
// sysinfo as Linux reports them; elsewhere it refuses to run rather
// than print zeros.
var errNeedsLinux = errors.New("bench: process meters need linux (getrusage, sysinfo)")

func cpuTime() (time.Duration, error) { return 0, errNeedsLinux }
func peakRSSMB() (float64, error)     { return 0, errNeedsLinux }
func loadAvg1() (float64, error)      { return 0, errNeedsLinux }
