//go:build !amd64 || purego

package cpu

func avxUsable() bool { return false }
