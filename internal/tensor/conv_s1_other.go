//go:build !amd64

package tensor

// The direct convolution kernels are amd64 assembly. Elsewhere
// convS1Available stays false, NewConvS1 returns nil, and these stubs
// are never called.

func convFwdAsm(nblk, ntap int, offs *int, src, w, dst *float32, ldd int) {
	panic("tensor: direct convolution kernel without AVX2")
}

func convBwdDataAsm(nblk, ntap, noc int, goffs *int, gp *float32, gps int, w, dst *float32, ldd int) {
	panic("tensor: direct convolution kernel without AVX2")
}

func convWGradDotAsm(nchunk int, segs *int, col, grad *float32, ldg int, dst *float32) {
	panic("tensor: direct convolution kernel without AVX2")
}

func convWGradSeqAsm(nrow, ow, skip int, src *float32, offs *[6]int, gt *float32, acc *float32) {
	panic("tensor: direct convolution kernel without AVX2")
}
