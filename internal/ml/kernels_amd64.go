package ml

// useAVX2 selects the assembly kernels. It is set once, at init, from the
// CPU's feature bits and the registers the OS saves; tests flip it to run
// both paths.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// Implemented in kernels_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAVX2(z []float64, v float64, r []float64)

//go:noescape
func adamAVX2(p, g, m, v []float64, b1, c1, b2, c2, lr, bc1, bc2, eps float64)
