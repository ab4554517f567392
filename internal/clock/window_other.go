//go:build !linux

package clock

func newWindow() window { return &timerWindow{} }
