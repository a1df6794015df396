package lrtest

// Exports for the external test package (package lrtest_test), whose tests
// drive whole assessments through packages that import lrtest.

// HasAVX512 reports whether this machine can run the vector kernels.
var HasAVX512 = hasAVX512

// SetVectorKernels sets useAVX512 and returns its previous value.
func SetVectorKernels(vector bool) (prev bool) {
	prev, useAVX512 = useAVX512, vector
	return prev
}
