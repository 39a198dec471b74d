package tensor

// Runtime selection of the direct stride-1 convolution kernels
// (conv_s1_amd64.s). Like bytes_amd64.go, this init runs before
// gemm_amd64.go's (file order), so it probes CPUID itself.

//go:noescape
func convFwdAsm(nblk, ntap int, offs *int, src, w, dst *float32, ldd int)

//go:noescape
func convBwdDataAsm(nblk, ntap, noc int, goffs *int, gp *float32, gps int, w, dst *float32, ldd int)

//go:noescape
func convWGradDotAsm(nchunk int, segs *int, col, grad *float32, ldg int, dst *float32)

//go:noescape
func convWGradSeqAsm(nrow, ow, skip int, src *float32, offs *[6]int, gt *float32, acc *float32)

func init() {
	if !cpuSupportsAVX2FMA() {
		return
	}
	convS1Available = true
}
