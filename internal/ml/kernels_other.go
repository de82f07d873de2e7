//go:build !amd64

package ml

// Without the amd64 assembly the vector kernels are their generic twins.
var (
	useAVX2    = false
	rowsumAVX2 = rowsumGeneric
	adamAVX2   = adamGeneric
	logAVX2    = logsGeneric
)
