//go:build !amd64 || purego

package qp

// setKernels is a no-op where the passes have no kernels: both paths are the
// Go loops.
func setKernels(bool) (restore func()) { return func() {} }
