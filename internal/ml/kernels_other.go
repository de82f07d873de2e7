//go:build !amd64

package ml

// Without the amd64 assembly the vector kernels are their generic twins.
var (
	useAVX2  = false
	axpyAVX2 = axpyGeneric
	adamAVX2 = adamGeneric
)
