// Package cpu reports, once at init, whether this process may run the AVX
// kernels of internal/mat and internal/qp. Those kernels are bitwise their
// packages' Go loops, so the answer sets the speed and never a result.
package cpu

// AVX is true on amd64 when the CPU executes VEX-256 instructions and the
// OS saves the YMM registers across context switches; false under the
// purego build tag and on every other GOARCH.
var AVX = avxUsable()
